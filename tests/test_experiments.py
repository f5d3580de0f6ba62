"""Reproduction harnesses: variance scan, training panels, field sweep."""

import math
import re

import numpy as np
import pytest

import vdd.exact as exact
import vdd.experiments as experiments
from vdd.ansatz import InitScheme, build_ansatz, init_params
from vdd.exact import _flatten, energy_and_grad
from vdd.experiments import (
    VarianceScanConfig,
    best_dimer,
    derive_seed,
    fig_panels,
    g_sweep,
    training_curves,
    variance_scan,
)
from vdd.graph import VddGraph
from vdd.hamiltonian import ModelSpec, build_model, ground_energy, tfim_ground_energy
from vdd.optimize import ConfigError
from vdd.state import CapacityError

# best dimer-product relative errors for the transverse-field chain at n=8,
# frozen from converged multi-start quasi-Newton runs
DIMER_REL = {10.0: 9.372072e-4, 20.0: 2.343567e-4, 40.0: 5.859261e-5}


def test_derive_seed_is_deterministic_and_spread():
    a = derive_seed(7, 4, 0)
    assert a == derive_seed(7, 4, 0)
    seen = {derive_seed(7, n, i) for n in (2, 3) for i in range(50)}
    assert len(seen) == 100


# 64-bit and wider bases take more than one entropy word; the stream must
# match numpy's coercion of [base, n, index] whatever its length
WIDE_BASES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70 + 5)


@pytest.mark.parametrize("n", [1, 13, 14])
@pytest.mark.parametrize("base", WIDE_BASES)
def test_derived_words_draw_derive_seeds_streams(base, n):
    from vdd.ansatz import _uniform_params

    words = experiments._derived_words(base, n, 4)
    assert words.dtype == np.uint32 and words.shape == (4, 2)
    assert words.view("<u8").ravel().tolist() == [derive_seed(base, n, i) for i in range(4)]
    want = np.stack([np.random.default_rng(derive_seed(base, n, i)).random((5, 3))
                     for i in range(4)])
    want[..., 1:] *= 2.0 * math.pi
    got = _uniform_params(5, words)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("values", [(0,), (2**32,), (2**64 - 1, 13, 3), (2**70 + 5, 1, 0),
                                    (0, 0, 0), (5, 2**40, 2**32 - 1)])
def test_seed_words_hash_as_numpys_coercion(values):
    words = experiments._seed_words(*values)
    assert words.dtype == np.uint32
    want = np.random.SeedSequence(list(values)).generate_state(8)
    assert np.array_equal(np.random.SeedSequence(words).generate_state(8), want)
    with pytest.raises(ValueError, match="non-negative"):
        experiments._seed_words(*values, -1)


@pytest.mark.parametrize("x", [0, 1, 12345, 2**32 - 1])
def test_one_entropy_word_seeds_the_stream_of_it_and_a_zero(x):
    # a seed below 2^32 coerces to one word, and `_derived_words` always
    # passes two: the SeedSequence pool pads its entropy with zero words
    def stream(entropy):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy))).random(8)

    one = stream(np.array([x], dtype=np.uint32))
    assert np.array_equal(one, stream(np.array([x, 0], dtype=np.uint32)))
    assert np.array_equal(one, np.random.default_rng(x).random(8))


def test_scan_rows_at_a_64_bit_base_match_the_reference():
    base = 17252005582479370994  # above 2^63, as a generated CLI seed can be
    cfg = VarianceScanConfig(model="heisenberg", n_values=(3, 4), tracked_params=("r1", "phi-1"),
                             num_seeds=5, base_seed=base)
    got = [(r.n, r.param, r.variance) for r in variance_scan(cfg).rows]
    want = []
    for n in cfg.n_values:
        stack = np.stack([_flatten(init_params(build_ansatz("accordion", n),
                                               InitScheme("uniform", derive_seed(base, n, k))),
                                   "raw") for k in range(5)])
        topo = exact._LevelTables(build_ansatz("accordion", n))
        _, grads = energy_and_grad(topo, build_model(cfg.model_spec(n)), stack, "raw")
        grads = grads.reshape(5, -1)
        for label in cfg.tracked_params:
            want.append((n, label,
                         float(np.var(grads[:, exact._label_index(topo.node_ids, label)]))))
    assert got == want


def polyfit_line(xs, ys):
    """The scan's fit before it was closed-form: np.polyfit and r^2 from it."""
    ns, logs = np.array(xs, dtype=float), np.array(ys)
    slope, intercept = np.polyfit(ns, logs, 1)
    ss_res = float(np.sum((logs - (slope * ns + intercept)) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    return float(slope), float(intercept), 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot


def exact_line(xs, ys):
    """The least-squares line in rational arithmetic, rounded once."""
    from fractions import Fraction

    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return float(slope), float(my - slope * mx)


def fit_cases(seed, top, count):
    """(xs, ys) with distinct ascending xs in [1, top], ys scattered about
    a line of log2-variance slope in [-3, 0.5]."""
    rng = np.random.default_rng(seed)
    cases = [([2.0, 4.0], [-3.0, -5.5]), ([3.0, 5.0, 9.0], [-7.0, -7.0, -7.0])]
    for size in (2, 3, 5, 8):
        for _ in range(count):
            xs = np.sort(rng.choice(np.arange(1, top + 1), size, replace=False)).astype(float)
            ys = rng.uniform(-3.0, 0.5) * xs + rng.uniform(-10.0, 10.0)
            ys += rng.choice([0.1, 1.0, 5.0]) * rng.normal(size=size)
            cases.append((xs.tolist(), ys.tolist()))
    return cases


def test_line_fit_matches_polyfit():
    # n <= 20, the universal layout's cap; past it np.polyfit itself strays
    # from the exact line by up to about 3e-12 (the next test)
    for xs, ys in fit_cases(30, 20, 100):
        got, want = experiments._fit_line(xs, ys), polyfit_line(xs, ys)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got, want)), (xs, ys, got, want)


def test_line_fit_matches_the_exact_line():
    for xs, ys in fit_cases(31, 64, 60):
        got, want = experiments._fit_line(xs, ys)[:2], exact_line(xs, ys)
        assert all(abs(a - b) <= 2e-13 for a, b in zip(got, want)), (xs, ys, got, want)


def test_scan_fits_match_polyfit_of_the_rows():
    for model, kind, ns in (("heisenberg", "accordion", (2, 4, 6, 8)), ("tfim", "product", (2, 3, 5)),
                            ("tfim", "universal", (2, 3, 4))):
        cfg = VarianceScanConfig(model=model, g=0.7, n_values=ns, tracked_params=("r1", "omega1"),
                                 num_seeds=12, base_seed=4, ansatz=kind)
        res = variance_scan(cfg)
        assert len(res.fits) == 2
        for fit in res.fits:
            rows = [r for r in res.rows if r.param == fit.param]
            want = polyfit_line([r.n for r in rows], np.log2([r.variance for r in rows]))
            got = (fit.slope, fit.intercept, fit.r_squared)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(got, want)), (fit, want)


def test_variance_scan_config_validation():
    with pytest.raises(ConfigError):
        VarianceScanConfig(model="tfim", n_values=(), tracked_params=("r1",))
    with pytest.raises(ConfigError):
        VarianceScanConfig(model="tfim", n_values=(4, 2), tracked_params=("r1",))
    with pytest.raises(ConfigError, match="universal layout at n = 21"):
        variance_scan(VarianceScanConfig(model="tfim", n_values=(21,), tracked_params=("r1",),
                                         ansatz="universal"))
    with pytest.raises(ConfigError):
        VarianceScanConfig(model="tfim", n_values=(2, 4), tracked_params=("r1",), num_seeds=1)
    with pytest.raises(ConfigError):
        VarianceScanConfig(model="spin-glass", n_values=(2, 4), tracked_params=("r1",))
    # counts are integers: a float or a bool is refused by name, not truncated
    for name, value in (("num_seeds", 2.5), ("num_seeds", True), ("n_values", (4.7, 6.2)),
                        ("n_values", (2, True))):
        with pytest.raises(ConfigError, match=name):
            VarianceScanConfig(model="tfim", tracked_params=("r1",),
                               **{"n_values": (2, 4), "num_seeds": 2, name: value})
    cfg = VarianceScanConfig(model="tfim", n_values=(np.int64(2), 4), tracked_params=("r1",),
                             num_seeds=np.int64(3))
    assert cfg.n_values == (2, 4) and cfg.n_values[0].__class__ is int
    for value in (2.5, -1, True):
        with pytest.raises(ConfigError, match="base_seed"):
            VarianceScanConfig(model="tfim", n_values=(2, 4), tracked_params=("r1",),
                               base_seed=value)
    VarianceScanConfig(model="tfim", n_values=(2, 4), tracked_params=("r1",),
                       base_seed=np.int64(5))


def test_the_config_refuses_a_layout_before_any_n_is_scanned():
    # a bad layout name, or the universal layout past its cap at the last n,
    # is refused when the config is made, not after the first n is scanned
    with pytest.raises(ConfigError, match=re.escape("unknown ansatz 'bogus'")):
        VarianceScanConfig(model="heisenberg", n_values=(4,), tracked_params=("r1",),
                           ansatz="bogus")
    with pytest.raises(ConfigError, match=re.escape(
            "no scan of the universal layout at n = 30: universal layout is capped at n = 20 "
            "(2^n - 1 nodes), got n = 30")):
        VarianceScanConfig(model="heisenberg", n_values=(4, 30), tracked_params=("r1",),
                           ansatz="universal")


def test_variance_scan_rows_and_reproducibility():
    cfg = VarianceScanConfig(
        model="tfim", g=1.0, n_values=(2, 4, 6), tracked_params=("r1", "phi-1"),
        num_seeds=12, base_seed=3,
    )
    a = variance_scan(cfg)
    b = variance_scan(cfg)
    assert len(a.rows) == 6
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.n, ra.param, ra.variance) == (rb.n, rb.param, rb.variance)
        assert ra.variance > 0
        assert ra.num_seeds == 12
        assert ra.g == 1.0
    assert {f.param for f in a.fits} == {"r1", "phi-1"}
    assert a.variance(4, "r1") > 0
    with pytest.raises(KeyError):
        a.variance(3, "r1")


@pytest.mark.parametrize("mode", ["raw", "trig"])
@pytest.mark.parametrize("kind", ["product", "accordion", "universal"])
def test_the_scan_evaluates_the_parameters_init_params_draws(kind, mode, monkeypatch):
    # the θ stack is drawn in place, with no graph, from the seeds' streams
    stacks = []

    def recorded(topo, h, theta, mode):
        stacks.append(theta.copy())
        return energy_and_grad(topo, h, theta, mode)

    monkeypatch.setattr(experiments, "energy_and_grad", recorded)
    cfg = VarianceScanConfig(model="heisenberg", n_values=(3, 5), tracked_params=("r1",),
                             num_seeds=3, base_seed=7, ansatz=kind, param_mode=mode)
    variance_scan(cfg)
    assert len(stacks) == 2
    for n, stack in zip(cfg.n_values, stacks):
        expected = np.stack([
            _flatten(init_params(build_ansatz(kind, n), InitScheme("uniform", derive_seed(7, n, k))),
                     mode) for k in range(3)])
        assert stack.shape == expected.shape and stack.tobytes() == expected.tobytes()


def test_the_scan_builds_no_graph(monkeypatch):
    # each n is compiled from the layout's arrays, so no graph is built or validated
    calls = []
    build = VddGraph.__init__

    def counted_build(self, *args, **kwargs):
        calls.append("graph")
        build(self, *args, **kwargs)

    def counted_validate(g):
        calls.append("validate")
        return []

    monkeypatch.setattr(VddGraph, "__init__", counted_build)
    for module in ("vdd.graph", "vdd.exact"):
        monkeypatch.setattr(f"{module}.validate", counted_validate)
    for kind in ("product", "accordion", "universal"):
        variance_scan(VarianceScanConfig(model="tfim", g=0.5, n_values=(3, 4), tracked_params=("r1",),
                                         num_seeds=2, ansatz=kind))
    assert calls == []
    exact._LevelTables(build_ansatz("accordion", 3))  # the counters do see the graph path
    assert calls == ["graph", "validate"]


def test_variance_scan_past_the_state_vector_cap():
    cfg = VarianceScanConfig(
        model="heisenberg", n_values=(64,), tracked_params=("r1", "r2", "r-1"),
        num_seeds=8, base_seed=2,
    )
    res = variance_scan(cfg)
    assert [(r.n, r.param) for r in res.rows] == [(64, "r1"), (64, "r2"), (64, "r-1")]
    for row in res.rows:
        assert math.isfinite(row.variance) and row.variance > 0


def test_variance_scan_skips_absent_labels_with_notice():
    # the product layout has n nodes, so node 5 is absent at n = 4
    cfg = VarianceScanConfig(
        model="tfim", g=0.5, n_values=(4, 6), tracked_params=("r5",),
        num_seeds=5, base_seed=0, ansatz="product",
    )
    res = variance_scan(cfg)
    assert [r.n for r in res.rows] == [6]
    assert any("n=4" in note for note in res.notices)
    assert res.fits == []  # one usable n cannot anchor a line


def test_diagonal_model_phase_variances_are_machine_zero():
    cfg = VarianceScanConfig(
        model="z1z2", n_values=(4, 6), tracked_params=("omega3", "phi-1"),
        num_seeds=20, base_seed=1,
    )
    res = variance_scan(cfg)
    for row in res.rows:
        assert row.variance <= 1e-28


def test_variance_scan_r_slope_is_not_exponential_decay():
    cfg = VarianceScanConfig(
        model="heisenberg", n_values=(2, 4, 6, 8), tracked_params=("r1",),
        num_seeds=40, base_seed=11,
    )
    res = variance_scan(cfg)
    assert res.slope("r1") > -0.5


def test_variance_csvs(tmp_path):
    cfg = VarianceScanConfig(
        model="tfim", g=10.0, n_values=(2, 3), tracked_params=("r1",),
        num_seeds=6, base_seed=2,
    )
    res = variance_scan(cfg)
    rows_path, fits_path = tmp_path / "rows.csv", tmp_path / "fits.csv"
    res.rows_to_csv(rows_path)
    res.fits_to_csv(fits_path)
    rows_lines = rows_path.read_text().strip().splitlines()
    assert rows_lines[0] == "model,g,n,param,variance,num_seeds"
    assert len(rows_lines) == 3
    assert rows_lines[1].startswith("tfim,10.0,2,r1,")
    fits_lines = fits_path.read_text().strip().splitlines()
    assert fits_lines[0] == "model,g,param,slope,intercept,r2"
    assert len(fits_lines) == 2


def test_fig_panels_cover_the_standard_models():
    panels = fig_panels(6)
    kinds = [(s.model, s.g) for s in panels]
    assert ("z1z2", 0.0) in kinds
    assert ("heisenberg", 0.0) in kinds or any(s.model == "heisenberg" for s in panels)
    assert sum(1 for s in panels if s.model == "tfim") == 3


def test_training_curves_smoke():
    out = training_curves(models=(ModelSpec("tfim", 4, g=0.0),), n=4, epochs=400, seed=0)
    assert len(out) == 1
    spec, trace = out[0]
    assert spec.g == 0.0
    assert trace.final.relative_error < 1e-4


def test_best_dimer_matches_frozen_floor():
    for g, rel in DIMER_REL.items():
        spec = ModelSpec("tfim", 8, g=g)
        e_dimer, graph = best_dimer(spec, starts=4, seed=0)
        e0, _ = ground_energy(build_model(spec))
        got = abs((e_dimer - e0) / e0)
        assert got == pytest.approx(rel, rel=1e-4)
        assert graph.num_qubits == 8


def test_best_dimer_runs_on_one_evaluator_and_matches_energy_and_grad(monkeypatch):
    # reference: the same L-BFGS-B runs on an energy_and_grad objective
    from scipy.optimize import minimize

    from vdd import experiments
    from vdd.ansatz import _uniform_params, build_ansatz
    from vdd.exact import _LevelTables, _materialize, energy_and_grad

    picked = []
    evaluator = experiments._evaluator
    monkeypatch.setattr(experiments, "_evaluator",
                        lambda *args: picked.append(args) or evaluator(*args))

    def owned_minimize(fun, x0, **options):
        # L-BFGS-B keeps a gradient between calls: the next call must not
        # overwrite it, as it would a view of the contraction's buffers
        _, first = fun(x0)
        kept = first.copy()
        fun(x0 + 0.1)
        assert np.array_equal(first, kept)
        return minimize(fun, x0, **options)

    monkeypatch.setattr("scipy.optimize.minimize", owned_minimize)
    for g in DIMER_REL:
        spec = ModelSpec("tfim", 8, g=g)
        h = build_model(spec)
        base = build_ansatz("accordion", spec.n)
        topo = _LevelTables(base)

        def objective(x):
            energy, grad = energy_and_grad(topo, h, x.reshape(-1, 3), "trig")
            return energy, grad.ravel()

        want = []
        for k in range(2):
            x0 = _uniform_params(len(topo.node_ids), [derive_seed(0, spec.n, k)])[0]
            x0[:, 0] = np.arccos(x0[:, 0])
            res = minimize(objective, x0.ravel(), jac=True, method="L-BFGS-B",
                           options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12})
            want.append((float(res.fun), _materialize(base, res.x, "trig")))
        calls = len(picked)
        energy, graph = best_dimer(spec, starts=2, seed=0)
        assert len(picked) == calls + 1  # the engine is picked once per call
        assert (energy, graph) == min(want, key=lambda run: run[0])


def test_g_sweep_values_and_error_law():
    res = g_sweep((10.0, 20.0, 40.0), n=8, epochs=10000, seed=0)
    rels = {row.g: row.relative_error for row in res.rows}
    # training converges onto the dimer floor (within Adam's dither band)
    for g, rel in rels.items():
        assert DIMER_REL[g] * (1 - 1e-6) <= rel <= DIMER_REL[g] * 1.05
    # relative error falls like 1/g^2 (|E0| itself grows like g) ...
    assert 3.5 < rels[10.0] / rels[20.0] < 4.5
    assert 3.5 < rels[20.0] / rels[40.0] < 4.5
    # ... so the trained energy offset above E0 falls like 1/g
    gaps = {row.g: row.relative_error * abs(row.e0) for row in res.rows}
    assert 1.4 < gaps[10.0] / gaps[20.0] < 2.8
    assert 1.4 < gaps[20.0] / gaps[40.0] < 2.8
    # the dimer benchmark is reported alongside and shares the floor
    assert len(res.dimer_rows) == 3
    for row in res.dimer_rows:
        assert row.relative_error == pytest.approx(DIMER_REL[row.g], rel=1e-3)


def test_g_sweep_exact_limit_and_errors():
    res = g_sweep((0.0,), n=4, epochs=1200, seed=0)
    assert res.rows[0].relative_error < 1e-4
    with pytest.raises(ValueError):
        g_sweep((), n=4)


def test_g_sweep_past_the_eigensolver_cap():
    # E0 of the open chain is the free-fermion one, so the sweep runs where
    # the eigensolver refuses
    with pytest.raises(CapacityError):
        ground_energy(build_model(ModelSpec("tfim", 13, g=1.0)))
    res = g_sweep((1.0,), n=13, epochs=5, seed=0)
    e0 = tfim_ground_energy(ModelSpec("tfim", 13, g=1.0))
    assert res.rows[0].e0 == res.dimer_rows[0].e0 == e0
    assert res.rows[0].relative_error >= 0


def test_g_sweep_csvs(tmp_path):
    res = g_sweep((10.0,), n=4, epochs=200, seed=0)
    main, bench = tmp_path / "sweep.csv", tmp_path / "dimer.csv"
    res.to_csv(main)
    res.benchmark_to_csv(bench)
    for path in (main, bench):
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "g,final_energy,e0,relative_error"
        assert len(lines) == 2
        cells = [float(c) for c in lines[1].split(",")]
        assert cells[0] == 10.0
        assert cells[2] < 0 and cells[3] >= 0


def test_g_sweep_checks_every_field_before_training():
    # a check after the first field's training would take minutes
    with pytest.raises(ConfigError, match="finite"):
        g_sweep((0.5, float("nan")), n=4, epochs=10**6)
