"""Gradient-descent training of diagram parameters.

Losses:

* "energy_gap" — <H> - E0 (E0 user-supplied, or from the eigensolver up to
                 its cap and, for the open TFIM and XX chains, from free
                 fermions past it);
                 same gradient as "energy", but the trace shows the gap.
* "energy"     — plain <H>.

Gradients come from the exact engine or from sampled batches ("vmc").
`train` compiles the diagram once and keeps θ, a flat vector ordered like
GradientVector entries, as its optimizer state for the whole run.  In
"trig" mode the magnitude slot holds u with r = cos u, signed and
unfolded, so Adam's moments always live in the chart it steps in; the
graph is materialized once, at the end, with r = |cos u| and a pi phase
shift on whichever edge's factor is negative.  In "raw" mode r is updated
directly and projected into [delta, 1-delta] after each step to keep
later gradients finite, delta being the exact engine's clamp of d/dr, so
the projected r is where the clamped and the true derivative agree.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field

import numpy as np

from .ansatz import ANSATZ_KINDS, InitScheme, build_ansatz, init_params
from .exact import _CLAMP, PARAM_MODES, _check_raw
from .exact import _evaluator, _flatten, _LevelTables, _materialize, parameter_labels
from .graph import VddGraph
from .hamiltonian import (
    ModelSpec,
    _checked_energy,
    build_model,
    ground_energy,
    tfim_ground_energy,
    xx_ground_energy,
)
from .state import CapacityError, ConfigError, _check_choice, _check_count, _write_csv

__all__ = [
    "ConfigError",
    "TrainingError",
    "AdamConfig",
    "SgdConfig",
    "AdamState",
    "TrainConfig",
    "TraceRecord",
    "TrainTrace",
    "train",
]

LOSSES = ("energy_gap", "energy")
GRADIENT_SOURCES = ("exact", "vmc")


class TrainingError(RuntimeError):
    """A training run hit a non-finite gradient or similar runtime failure."""


def _check_positive(name: str, value) -> None:
    """ConfigError unless value is positive and finite: an infinite lr turns θ
    into nan at the first step, and an infinite eps leaves θ where it is."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        _check_positive("lr", self.lr)
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("betas must lie in [0, 1)")
        _check_positive("eps", self.eps)


@dataclass(frozen=True)
class SgdConfig:
    lr: float = 0.01

    def __post_init__(self):
        _check_positive("lr", self.lr)


@dataclass
class AdamState:
    """First/second moment accumulators, the running maximum of the second
    moment (v_max), and the number of applied updates (step)."""

    step: int
    m: np.ndarray
    v: np.ndarray
    v_max: np.ndarray

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(step=0, m=np.zeros(size), v=np.zeros(size), v_max=np.zeros(size))


def _check_finite(grads: np.ndarray, labels, epoch: int) -> None:
    bad = np.flatnonzero(~np.isfinite(grads))
    if bad.size:
        raise TrainingError(f"non-finite gradient at epoch {epoch} for: {[labels[i] for i in bad]}")


def _adam(params, grads, state, lr, beta1, beta2, eps):
    """One bias-corrected Adam update in the AMSGrad form (Reddi, Kale & Kumar,
    ICLR 2018), in place on params and on state's moments: the step divides
    by the running maximum of v, so it stays bounded at a minimum, where
    plain Adam's decaying v lets the iterate burst away.  No input checks:
    `train` checks each epoch's gradient once.  Per entry,

        m = beta1 m + (1 - beta1) g,  v = beta2 v + (1 - beta2) g^2,
        v_max = max(v_max, v),
        params -= lr (m / (1 - beta1^t)) / (sqrt(v_max / (1 - beta2^t)) + eps).
    """
    t = state.step = state.step + 1
    state.m *= beta1
    state.m += (1 - beta1) * grads
    state.v *= beta2
    state.v += (1 - beta2) * grads**2
    np.maximum(state.v_max, state.v, out=state.v_max)
    params -= lr * (state.m / (1 - beta1**t)) / (np.sqrt(state.v_max / (1 - beta2**t)) + eps)


# ---------------------------------------------------------------------------
# the training loop


@dataclass(frozen=True)
class TrainConfig:
    ansatz: str = "accordion"
    model: ModelSpec | None = None
    optimizer: AdamConfig | SgdConfig = field(default_factory=AdamConfig)
    epochs: int = 10000
    seed: int = 0
    gradient_source: str = "exact"
    batch_size: int | None = None
    param_mode: str = "trig"
    loss: str = "energy_gap"
    e0: float | None = None
    init: InitScheme | None = None

    def __post_init__(self):
        _check_choice("ansatz", self.ansatz, ANSATZ_KINDS)
        _check_choice("loss", self.loss, LOSSES)
        _check_choice("gradient_source", self.gradient_source, GRADIENT_SOURCES)
        _check_choice("param_mode", self.param_mode, PARAM_MODES)
        _check_count("epochs", self.epochs, 1)
        _check_count("seed", self.seed, 0)
        if not isinstance(self.model, ModelSpec):
            raise ConfigError(f"model must be a ModelSpec, got {self.model!r}")
        if not isinstance(self.optimizer, (AdamConfig, SgdConfig)):
            raise ConfigError(f"optimizer must be AdamConfig or SgdConfig, got {self.optimizer!r}")
        if self.init is not None and not isinstance(self.init, InitScheme):
            raise ConfigError(f"init must be None or an InitScheme, got {self.init!r}")
        if self.e0 is not None and not math.isfinite(self.e0):
            raise ConfigError(f"e0 must be finite, got {self.e0!r}")
        if self.gradient_source == "vmc":
            _check_count("batch_size", self.batch_size, 2)

    @property
    def num_qubits(self) -> int:
        return self.model.n


@dataclass
class TraceRecord:
    """One epoch; energy_stderr is the sampled batch's standard error of the
    energy under the VMC gradient source and None otherwise, and wall_ms the
    epoch's wall time in milliseconds, gradient and parameter step included."""

    epoch: int
    loss: float
    energy: float
    relative_error: float | None
    grad_norm: float
    energy_stderr: float | None = None
    wall_ms: float | None = None


@dataclass
class TrainTrace:
    records: list[TraceRecord]
    graph: VddGraph

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self, path) -> None:
        _write_csv(path, ["epoch", "loss", "energy", "relative_error", "grad_norm",
                          "energy_stderr", "wall_ms"], map(astuple, self.records))


def _resolve_e0(config: TrainConfig, h) -> float | None:
    if config.e0 is not None:
        return config.e0
    if config.loss != "energy_gap":
        return None
    try:
        e0, _ = ground_energy(h)
    except CapacityError as exc:
        for free_fermions in (tfim_ground_energy, xx_ground_energy):
            try:
                return free_fermions(config.model)
            except ValueError:  # not the chain this oracle solves
                pass
        raise ConfigError(
            f"energy_gap at n = {h.num_qubits} needs a user-supplied e0: {exc}"
        ) from None
    return e0


def train(config: TrainConfig) -> TrainTrace:
    """Run the configured descent and return the per-epoch trace.

    Initializes uniformly at `seed` (unless an explicit init scheme is
    given) and compiles the diagram, and the engine of an exact energy
    gradient (`exact._evaluator`), once; then per epoch: evaluate loss +
    gradient at θ, step θ.  The trained graph is materialized at the end.
    """
    from .vmc import VmcBatch, _batch_gradient, _draw

    n = config.num_qubits
    scheme = config.init if config.init is not None else InitScheme("uniform", seed=config.seed)
    g = init_params(build_ansatz(config.ansatz, n), scheme)
    topo = _LevelTables(g)
    labels = parameter_labels(g)
    mode = config.param_mode
    theta = _flatten(g, mode).ravel()
    node_params = theta.reshape(-1, 3)  # a view: one (r | u, omega, phi) row per node

    h = build_model(config.model)
    e0 = _resolve_e0(config, h)
    if config.gradient_source == "exact":
        evaluate, _ = _evaluator(topo, h, 1)  # the engine, chosen once per run
    else:
        sample_rng = np.random.default_rng([config.seed, 1])
        batch = VmcBatch(topo, config.batch_size)  # every epoch is drawn into it

    opt = config.optimizer
    adam_state = AdamState.zeros(theta.size) if isinstance(opt, AdamConfig) else None

    records: list[TraceRecord] = []
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        stderr = None
        if config.gradient_source == "exact":  # energy_and_grad at one θ
            if mode == "raw":
                _check_raw(topo, node_params[None], False, stacklevel=2)
            norm2, value, grad = evaluate(node_params[None], mode)
            energy = _checked_energy(norm2.item(), value.item(), h)
        else:
            _draw(batch, h, node_params, mode, sample_rng)
            energy, stderr = batch.energy_mean, batch.energy_stderr
            grad = _batch_gradient(batch)
        loss_val = energy - e0 if config.loss == "energy_gap" else energy
        rel = abs((energy - e0) / e0) if e0 not in (None, 0.0) else None
        grad = grad.ravel()

        grad_norm = math.sqrt(grad @ grad)
        if not math.isfinite(grad_norm):  # finite norm, finite entries: one check an epoch
            _check_finite(grad, labels, epoch)
        record = TraceRecord(
            epoch=epoch,
            loss=float(loss_val),
            energy=float(energy),
            relative_error=None if rel is None else float(rel),
            grad_norm=grad_norm,
            energy_stderr=stderr,
        )
        records.append(record)

        if isinstance(opt, AdamConfig):
            _adam(theta, grad, adam_state, opt.lr, opt.beta1, opt.beta2, opt.eps)
        else:
            theta -= opt.lr * grad
        if mode == "raw":
            theta[0::3] = np.clip(theta[0::3], _CLAMP, 1.0 - _CLAMP)
        record.wall_ms = 1e3 * (time.perf_counter() - start)

    return TrainTrace(records=records, graph=_materialize(g, theta, mode))
