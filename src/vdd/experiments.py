"""Reproduction harnesses: gradient-variance scans over system size,
standard training-curve panels, and the transverse-field error sweep.

The variance scan draws `num_seeds` independent uniform initializations
of the accordion ansatz per system size, evaluates the exact gradient of
<H>, and reports the across-seed population variance of selected entries
together with a least-squares fit of log2(variance) against n.  A barren
plateau shows up as a steep negative slope (about -1 or worse per qubit);
slopes above -0.5 mean the tracked gradient component is not decaying
exponentially.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .ansatz import _automaton, _layout_step, _uniform_params, build_ansatz
from .exact import PARAM_MODES, _evaluator, _in_chart, _label_index, _LevelTables, _materialize
from .exact import energy_and_grad, exact_energy
from .graph import VddGraph
from .hamiltonian import ModelSpec, _checked_energy, build_model, tfim_ground_energy
from .optimize import AdamConfig, TrainConfig, TrainTrace, train
from .state import CapacityError, ConfigError, _check_choice, _check_count, _write_csv

__all__ = [
    "VarianceScanConfig",
    "ScanRow",
    "FitRow",
    "VarianceScanResult",
    "variance_scan",
    "derive_seed",
    "fig_panels",
    "training_curves",
    "SweepRow",
    "GSweepResult",
    "g_sweep",
    "best_dimer",
]

VARIANCE_FLOOR = 1e-300  # rows at or below this are left out of the log fit


def derive_seed(base_seed: int, n: int, index: int) -> int:
    """Independent, reproducible seed for grid cell (n, index): the uint64
    that ``SeedSequence([base_seed, n, index])`` generates.  The scan and
    `best_dimer` draw ``default_rng`` of it from its two uint32 words
    (`_derived_words`), with no Python int between the two hashes."""
    return int(np.random.SeedSequence([base_seed, n, index]).generate_state(1, np.uint64)[0])


def _seed_words(*values: int) -> np.ndarray:
    """The uint32 words numpy's SeedSequence coerces the entropy
    ``[*values]`` into: each value's little-endian 32-bit words (one word
    for 0), value after value."""
    words = []
    for value in values:
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _derived_words(base_seed: int, n: int, count: int) -> np.ndarray:
    """``derive_seed(base_seed, n, index)`` for index < count as the
    little-endian uint32 words of each, shape (count, 2).

    The entropy words of ``[base_seed, n, 0]`` are built once and the index
    word, the last, rewritten in place (an index below 2^32 is one word, as
    numpy coerces it).  The words seed ``default_rng(derive_seed(...))``'s
    stream: a seed below 2^32 coerces to its low word alone, and a
    SeedSequence pads its entropy with zero words.
    """
    words = _seed_words(base_seed, n, 0)
    out = np.empty((count, 2), dtype=np.uint32)
    for index, row in enumerate(out):
        words[-1] = index
        row[:] = np.random.SeedSequence(words).generate_state(2)
    return out


@dataclass(frozen=True)
class VarianceScanConfig:
    """Grid for the variance scan: one model family at fixed couplings."""

    model: str
    n_values: tuple[int, ...]
    tracked_params: tuple[str, ...]
    num_seeds: int = 100
    base_seed: int = 0
    g: float = 0.0
    jx: float = 1.0
    jy: float = 1.0
    jz: float = 1.0
    boundary: str = "open"
    ansatz: str = "accordion"
    param_mode: str = "raw"

    def __post_init__(self):
        n_values = tuple(_check_count("n_values", n, 1) for n in self.n_values)
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "tracked_params", tuple(self.tracked_params))
        if not self.n_values:
            raise ConfigError("n_values must be nonempty")
        if list(self.n_values) != sorted(set(self.n_values)):
            raise ConfigError(f"n_values must be strictly ascending, got {self.n_values}")
        _check_count("num_seeds", self.num_seeds, 2)
        _check_count("base_seed", self.base_seed, 0)
        if not self.tracked_params:
            raise ConfigError("tracked_params must be nonempty")
        _check_choice("param_mode", self.param_mode, PARAM_MODES)
        for n in self.n_values:
            self.model_spec(n)
            try:
                _layout_step(self.ansatz, n)
            except CapacityError as exc:
                raise ConfigError(
                    f"no scan of the {self.ansatz} layout at n = {n}: {exc}") from None

    def model_spec(self, n: int) -> ModelSpec:
        return ModelSpec(
            self.model, n, g=self.g, jx=self.jx, jy=self.jy, jz=self.jz, boundary=self.boundary
        )

    @property
    def coupling(self) -> float:
        """The knob reported in the `g` column: g for tfim, J for heisenberg."""
        if self.model == "tfim":
            return self.g
        if self.model == "heisenberg":
            return self.jx
        return 0.0


@dataclass
class ScanRow:
    model: str
    g: float
    n: int
    param: str
    variance: float
    num_seeds: int


@dataclass
class FitRow:
    model: str
    g: float
    param: str
    slope: float
    intercept: float
    r_squared: float


@dataclass
class VarianceScanResult:
    rows: list[ScanRow]
    fits: list[FitRow]
    notices: list[str] = field(default_factory=list)

    def rows_to_csv(self, path) -> None:
        _write_csv(path, ["model", "g", "n", "param", "variance", "num_seeds"],
                   map(astuple, self.rows))

    def fits_to_csv(self, path) -> None:
        _write_csv(path, ["model", "g", "param", "slope", "intercept", "r2"],
                   map(astuple, self.fits))

    def variance(self, n: int, param: str) -> float:
        for r in self.rows:
            if r.n == n and r.param == param:
                return r.variance
        raise KeyError(f"no row for n={n}, param={param!r}")

    def slope(self, param: str) -> float:
        for f in self.fits:
            if f.param == param:
                return f.slope
        raise KeyError(f"no fit for param={param!r}")


def variance_scan(cfg: VarianceScanConfig) -> VarianceScanResult:
    """Across-seed population variance of tracked gradient entries per n.

    All seeds of one n are evaluated in one `energy_and_grad` call, on a
    topology compiled from the layout's arrays (`ansatz._automaton`) with
    no graph, and one θ stack of the seeds' draws (`ansatz._uniform_params`
    of `_derived_words`: the streams `init_params(..., InitScheme("uniform",
    derive_seed(base_seed, n, index)))` draws).  n has no
    cap of its own: the accordion and product layouts contract at any n,
    and the universal layout, whose builder stops at n = 20 where the dense
    engine does, is refused past it by the config.  A tracked label with
    no node at some n skips that row, and the result's `notices` records it.
    The tracked entries' variances are one `np.var` per n, and each label's
    line is one closed-form least-squares fit (`_fit_line`).
    """
    rows: list[ScanRow] = []
    notices: list[str] = []
    per_label: dict[str, list[tuple[int, float]]] = {p: [] for p in cfg.tracked_params}
    for n in cfg.n_values:
        topo = _LevelTables(_automaton(n, _layout_step(cfg.ansatz, n)))
        h = build_model(cfg.model_spec(n))
        live: dict[str, int] = {}  # tracked label -> flat gradient index
        for label in cfg.tracked_params:
            try:
                live[label] = _label_index(topo.node_ids, label)
            except KeyError:
                notices.append(f"label {label!r} absent at n={n}; row skipped")
        if not live:
            continue
        entropies = _derived_words(cfg.base_seed, n, cfg.num_seeds)
        theta = _in_chart(_uniform_params(len(topo.node_ids), entropies), cfg.param_mode)
        _, grads = energy_and_grad(topo, h, theta, cfg.param_mode)
        # population variance over the draws, one contiguous row per label,
        # so each is summed as np.var sums a lone column
        columns = grads.reshape(cfg.num_seeds, -1)[:, list(live.values())].T.copy()
        for label, var in zip(live, np.var(columns, axis=1).tolist()):
            rows.append(
                ScanRow(
                    model=cfg.model,
                    g=cfg.coupling,
                    n=n,
                    param=label,
                    variance=var,
                    num_seeds=cfg.num_seeds,
                )
            )
            per_label[label].append((n, var))

    fits: list[FitRow] = []
    for label, pairs in per_label.items():
        usable = [(n, v) for n, v in pairs if v > VARIANCE_FLOOR]
        if len(usable) < 2:
            continue
        slope, intercept, r2 = _fit_line([float(n) for n, _ in usable],
                                         [math.log2(v) for _, v in usable])
        fits.append(
            FitRow(
                model=cfg.model,
                g=cfg.coupling,
                param=label,
                slope=slope,
                intercept=intercept,
                r_squared=r2,
            )
        )
    return VarianceScanResult(rows=rows, fits=fits, notices=notices)


def _fit_line(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares line through (xs, ys), at least two distinct xs, in
    closed form: (slope, intercept, r^2), r^2 = 1 when the ys' squared
    deviations from their mean sum to 0."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    slope = sum(a * b for a, b in zip(dx, dy)) / sum(a * a for a in dx)
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum(b * b for b in dy)
    return slope, intercept, 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# training-curve panels


def fig_panels(n: int = 10) -> tuple[ModelSpec, ...]:
    """The five standard panels: Z1Z2, Heisenberg J=1, TFIM g in {0, 1, 10}."""
    return (
        ModelSpec("z1z2", n),
        ModelSpec("heisenberg", n),
        ModelSpec("tfim", n, g=0.0),
        ModelSpec("tfim", n, g=1.0),
        ModelSpec("tfim", n, g=10.0),
    )


def training_curves(
    models=None,
    n: int = 10,
    epochs: int = TrainConfig.epochs,
    lr: float = AdamConfig.lr,
    seed: int = TrainConfig.seed,
    ansatz: str = TrainConfig.ansatz,
    param_mode: str = TrainConfig.param_mode,
) -> list[tuple[ModelSpec, TrainTrace]]:
    """Train each panel with the energy-gap loss and return the traces."""
    if models is None:
        models = fig_panels(n)
    out = []
    for spec in models:
        cfg = TrainConfig(
            ansatz=ansatz,
            model=spec,
            optimizer=AdamConfig(lr=lr),
            epochs=epochs,
            seed=seed,
            param_mode=param_mode,
            loss="energy_gap",
        )
        out.append((spec, train(cfg)))
    return out


# ---------------------------------------------------------------------------
# transverse-field error sweep


@dataclass
class SweepRow:
    g: float
    final_energy: float
    e0: float
    relative_error: float


def _write_sweep_rows(path, rows: list[SweepRow]) -> None:
    _write_csv(path, ["g", "final_energy", "e0", "relative_error"], map(astuple, rows))


@dataclass
class GSweepResult:
    rows: list[SweepRow]
    dimer_rows: list[SweepRow]  # benchmark: best dimer-product state per g

    def to_csv(self, path) -> None:
        _write_sweep_rows(path, self.rows)

    def benchmark_to_csv(self, path) -> None:
        _write_sweep_rows(path, self.dimer_rows)


def best_dimer(spec: ModelSpec, starts: int = 6, seed: int = 0) -> tuple[float, VddGraph]:
    """Lowest exact energy over the accordion (dimer-product) family.

    Quasi-Newton refinement (L-BFGS-B in the unconstrained trig
    coordinates, analytic gradient) from several random starts; the best
    local minimum over starts is returned as the family's benchmark.  The
    engine of the exact gradient (`exact._evaluator`) is chosen once per
    call, as `train` does, and each energy checked as `energy_and_grad`
    checks it.
    """
    from scipy.optimize import minimize

    h = build_model(spec)
    base = build_ansatz("accordion", spec.n)
    topo = _LevelTables(base)
    evaluate, _ = _evaluator(topo, h, 1)

    def objective(x):
        norm2, value, grad = evaluate(x.reshape(1, -1, 3), "trig")
        # the contraction's results are views its next call overwrites,
        # and L-BFGS-B keeps the gradient between calls
        return _checked_energy(norm2.item(), value.item(), h), grad.ravel().copy()

    best_energy = math.inf
    best_graph = None
    entropies = _derived_words(seed, spec.n, starts)
    for x0 in _in_chart(_uniform_params(len(topo.node_ids), entropies), "trig"):
        res = minimize(objective, x0.ravel(), jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
        if res.fun < best_energy:
            best_energy = float(res.fun)
            best_graph = _materialize(base, res.x, "trig")
    return best_energy, best_graph


def g_sweep(
    g_values,
    n: int = 8,
    epochs: int = TrainConfig.epochs,
    seed: int = TrainConfig.seed,
    lr: float = AdamConfig.lr,
    ansatz: str = TrainConfig.ansatz,
    param_mode: str = TrainConfig.param_mode,
) -> GSweepResult:
    """Train the open TFIM chain at each g; report trained and best-dimer
    relative errors against the free-fermion E0 (`tfim_ground_energy`),
    which, like the exact contraction, holds at any n.  Every model is
    checked before the first training: an invalid one is a ConfigError."""
    specs = [ModelSpec("tfim", n, g=float(g)) for g in g_values]
    if not specs:
        raise ConfigError("g_values must be nonempty")
    rows: list[SweepRow] = []
    dimer_rows: list[SweepRow] = []
    for spec in specs:
        e0 = tfim_ground_energy(spec)
        cfg = TrainConfig(
            ansatz=ansatz,
            model=spec,
            optimizer=AdamConfig(lr=lr),
            epochs=epochs,
            seed=seed,
            param_mode=param_mode,
            loss="energy_gap",
            e0=e0,
        )
        trace = train(cfg)
        final_energy = exact_energy(trace.graph, build_model(spec))
        rows.append(
            SweepRow(
                g=spec.g,
                final_energy=final_energy,
                e0=e0,
                relative_error=abs((final_energy - e0) / e0),
            )
        )
        if ansatz == "accordion":
            bench_energy, _ = best_dimer(spec, seed=seed)
            dimer_rows.append(
                SweepRow(
                    g=spec.g,
                    final_energy=bench_energy,
                    e0=e0,
                    relative_error=abs((bench_energy - e0) / e0),
                )
            )
    return GSweepResult(rows=rows, dimer_rows=dimer_rows)
