"""Exact engine: state vectors, energies, analytic gradients vs differences."""

import math
import re
import warnings

import numpy as np
import pytest

import vdd.exact as exact
from vdd.ansatz import ANSATZ_KINDS, _automaton, _layout_step, build_accordion, build_ansatz
from vdd.ansatz import build_product
from vdd.exact import (
    GradientVector,
    SingularGradientWarning,
    _contracts,
    _flatten,
    _LevelTables,
    energy_and_grad,
    exact_energy,
    exact_gradient,
    finite_difference,
    parameter_labels,
    to_state_vector,
)
from vdd.graph import amplitude
from vdd.hamiltonian import ModelSpec, build_model, expectation, ground_energy
from vdd.state import CapacityError
from graphs import layered_graph, random_graph, set_node


def test_state_vector_matches_amplitude_and_is_normalized():
    for kind, n, seed in (("product", 4, 0), ("accordion", 5, 1), ("universal", 3, 2)):
        g = random_graph(kind, n, seed)
        sv = to_state_vector(g)
        assert np.sum(np.abs(sv.amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        for idx in (0, 1, 2**n - 1, 2 ** (n - 1)):
            bits = tuple((idx >> (n - 1 - i)) & 1 for i in range(n))
            assert sv.amps[idx] == pytest.approx(amplitude(g, bits), abs=1e-14)


@pytest.mark.parametrize("kind", ANSATZ_KINDS)
def test_a_layout_compiles_to_the_tables_of_its_graph(kind):
    # the variance scan compiles a layout's arrays with no graph
    for n in range(1, 13):
        layout = _LevelTables(_automaton(n, _layout_step(kind, n)))
        graph = _LevelTables(build_ansatz(kind, n))
        assert vars(layout).keys() == vars(graph).keys()
        for name, value in vars(graph).items():
            if name.startswith("_"):
                continue
            if name == "fills":
                assert len(layout.fills) == len(value)
                for got, want in zip(layout.fills, value):
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
            else:
                assert type(getattr(layout, name)) is type(value), name
                assert np.array_equal(getattr(layout, name), value), (kind, n, name)


def _corrupted(change):
    child, level = _automaton(6, _layout_step("accordion", 6))  # rows 0 | 1 2 | 3 | 4 5 | 6 | 7 8
    change(child, level)
    return child, level


@pytest.mark.parametrize("change,message", [
    (lambda child, level: child.__setitem__((0, 0), 3), "one level down"),  # two levels down
    (lambda child, level: child.__setitem__((3, 1), -1), "one level down"),  # terminal too soon
    (lambda child, level: child.__setitem__((8, 0), 0), "one level down"),  # out of the last level
    (lambda child, level: child.__setitem__((0, 1), 1), "not one root"),  # node 2 is orphaned
    (lambda child, level: level.__setitem__(slice(None), level + 1), "not one root"),  # no level 0
], ids=["skip", "early-terminal", "late-edge", "orphan", "no-root"])
def test_corrupted_layout_arrays_fail_the_structural_check(change, message):
    with pytest.raises(ValueError, match=message):
        _LevelTables(_corrupted(change))


def test_state_vector_capacity_cap():
    with pytest.raises(CapacityError):
        to_state_vector(build_product(21))


def test_dense_engine_respects_the_state_vector_cap():
    # 32 nodes per level make contraction costlier than 2^21 amplitudes,
    # so the dense engine is chosen, and it must refuse instead of allocating
    g = layered_graph(21, 32)
    h = build_model(ModelSpec("heisenberg", 21))
    assert not _contracts(_LevelTables(g), h)
    with pytest.raises(CapacityError):
        exact_gradient(g, h)
    with pytest.raises(CapacityError):
        exact_energy(g, h)


def test_cost_rule_contracts_narrow_layouts_only():
    for spec in (ModelSpec("heisenberg", 12), ModelSpec("tfim", 12, g=1.0, boundary="periodic")):
        h = build_model(spec)
        picks = {kind: _contracts(_LevelTables(build_ansatz(kind, 12)), h)
                 for kind in ("product", "accordion", "universal")}
        assert picks == {"product": True, "accordion": True, "universal": False}


def test_cost_rule_counts_the_fixed_cost_per_level():
    # contraction is the faster engine for the accordion on the open
    # Heisenberg chain from n = 3 on, though (W^2 D)^2 = 400 > 2^n up to n = 8
    for n in range(3, 17):
        h = build_model(ModelSpec("heisenberg", n))
        assert _contracts(_LevelTables(build_ansatz("accordion", n)), h)
        if n <= 8:
            assert not _contracts(_LevelTables(build_ansatz("universal", n)), h)


def test_cost_rule_keeps_one_thetas_transfer_matrices_within_their_budget():
    # width 14 at n = 20: (W^2 D)^2 = 960 400 < 2^20 + 1000, so the time rule
    # alone contracts, with transfer matrices of 16 n (W^2 D)^2 bytes = 307 MB
    # for one θ
    h = build_model(ModelSpec("heisenberg", 20))
    wide = _LevelTables(layered_graph(20, 14))
    assert wide.width == 14
    assert 16 * 20 * (14**2 * 5) ** 2 > exact._CONTRACTION_BYTES
    assert not _contracts(wide, h)
    assert _contracts(_LevelTables(layered_graph(20, 4)), h)
    # past the cap contraction is the only engine, whatever its transfer
    # matrices take
    assert _contracts(_LevelTables(layered_graph(21, 14)), build_model(ModelSpec("heisenberg", 21)))
    for n in (10, 13, 14, 64):
        for spec in (ModelSpec("heisenberg", n), ModelSpec("heisenberg", n, boundary="periodic")):
            assert _contracts(_LevelTables(build_ansatz("accordion", n)), build_model(spec))
        assert _contracts(_LevelTables(build_ansatz("product", n)), build_model(ModelSpec("heisenberg", n)))


def test_first_contraction_allocates_no_dense_basis():
    # width 4 at n = 64: one θ's transfer matrices take 16 n (W^2 D)^2 bytes
    # = 6.2 MiB; a dense transfer basis, 4 n (W^2 D)^2 complex numbers, would
    # take 25 MiB on top
    import tracemalloc

    g = layered_graph(64, 4)
    topo, h = _LevelTables(g), build_model(ModelSpec("heisenberg", 64))
    theta = _flatten(g, "trig")
    tracemalloc.start()
    try:
        energy_and_grad(topo, h, theta, "trig")  # compiles the contraction
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("kind,n", [("accordion", 12), ("accordion", 17), ("product", 15)])
def test_exact_energy_by_contraction_matches_the_state_vector(kind, n):
    g = random_graph(kind, n, n)
    h = build_model(ModelSpec("heisenberg", n, jx=0.8, jy=1.1, jz=0.5, boundary="periodic"))
    assert _contracts(_LevelTables(g), h)
    assert exact_energy(g, h) == pytest.approx(expectation(h, to_state_vector(g).amps), abs=1e-12)


def test_exact_energy_matches_dense_expectation():
    for seed in range(3):
        g = random_graph("accordion", 6, seed)
        h = build_model(ModelSpec("heisenberg", 6, jx=0.8, jy=1.1, jz=0.5))
        sv = to_state_vector(g)
        assert exact_energy(g, h) == pytest.approx(expectation(h, sv.amps), abs=1e-12)


def test_energy_respects_variational_bound():
    spec = ModelSpec("tfim", 5, g=1.2)
    h = build_model(spec)
    e0, _ = ground_energy(h)
    for seed in range(5):
        assert exact_energy(random_graph("accordion", 5, seed), h) >= e0 - 1e-10


def test_parameter_labels_order_and_lookup():
    g = build_accordion(3)  # ids 1..4
    labels = parameter_labels(g)
    assert labels[:3] == ("r1", "omega1", "phi1")
    assert len(labels) == 12
    gv = exact_gradient(g, build_model(ModelSpec("tfim", 3, g=0.4)))
    assert gv.index_of("omega3") == labels.index("omega3")
    assert gv.entry("r2") == gv.entries[labels.index("r2")]
    with pytest.raises(KeyError):
        gv.index_of("r9")
    with pytest.raises(KeyError):
        gv.index_of("theta1")


def test_negative_node_ids_resolve_from_the_end():
    g = build_accordion(4)  # ids 1..6
    gv = exact_gradient(g, build_model(ModelSpec("tfim", 4, g=0.4)))
    assert gv.index_of("phi-1") == gv.index_of("phi6")
    assert gv.index_of("r-2") == gv.index_of("r5")


def test_single_qubit_transverse_gradient_by_hand():
    # psi = r|0> + sqrt(1-r^2)|1>, <X> = 2 r sqrt(1-r^2); at r=0.6:
    # raw   d<X>/dr = 2(1-2r^2)/sqrt(1-r^2) = 2*0.28/0.8 = 0.7
    # trig  d<X>/du = -sin(u) * 0.7 = -0.8 * 0.7 = -0.56
    g = set_node(build_product(1), 1, 0.6, 0.0, 0.0)
    h = build_model(ModelSpec("tfim", 2, g=1.0))  # only need the X part; build X via z1z2? no:
    # single-site field: use the 1-qubit slice of tfim by constructing spec directly
    from vdd.hamiltonian import PauliHamiltonian, PauliString

    hx = PauliHamiltonian(num_qubits=1, terms=(PauliString(1.0, "X"),))
    assert exact_energy(g, hx) == pytest.approx(2 * 0.6 * 0.8, abs=1e-14)
    assert exact_gradient(g, hx, mode="raw").entry("r1") == pytest.approx(0.7, abs=1e-12)
    assert exact_gradient(g, hx, mode="trig").entry("r1") == pytest.approx(-0.56, abs=1e-12)


@pytest.mark.parametrize("mode", ["raw", "trig"])
@pytest.mark.parametrize(
    "kind,spec,seed",
    [
        ("product", ModelSpec("tfim", 4, g=1.0), 3),
        ("accordion", ModelSpec("heisenberg", 5), 4),
        ("accordion", ModelSpec("tfim", 6, g=10.0), 5),
        ("universal", ModelSpec("heisenberg", 3, jx=0.2, jy=1.4, jz=0.8), 6),
        ("accordion", ModelSpec("z1z2", 4), 7),
    ],
)
def test_gradient_matches_finite_difference(kind, spec, seed, mode):
    g = random_graph(kind, spec.n, seed)
    h = build_model(spec)
    got = exact_gradient(g, h, mode=mode).entries
    # step 1e-6 keeps truncation small even when some r sits near the
    # box edge, where the right-edge derivative is close to singular
    ref = finite_difference(g, h, step=1e-6, mode=mode).entries
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-6


def test_diagonal_hamiltonian_has_zero_phase_gradient():
    g = random_graph("accordion", 4, 9)
    for spec in (ModelSpec("z1z2", 4), ModelSpec("tfim", 4, g=0.0)):
        gv = exact_gradient(g, build_model(spec), mode="raw")
        labels = parameter_labels(g)
        phase_entries = [
            gv.entries[i] for i, lab in enumerate(labels) if lab[0] in ("o", "p")
        ]
        assert np.max(np.abs(phase_entries)) < 1e-12


def test_raw_gradient_warns_on_boundary_r():
    g = set_node(build_product(2), 1, 1.0, 0.0, 0.0)
    h = build_model(ModelSpec("tfim", 2, g=1.0))
    with pytest.warns(SingularGradientWarning):
        gv = exact_gradient(g, h, mode="raw")
    assert np.all(np.isfinite(gv.entries))
    # trig mode has no singularity there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact_gradient(g, h, mode="trig")


def test_raw_gradient_warning_names_the_stack_entry():
    g = random_graph("product", 3, 5)
    h = build_model(ModelSpec("tfim", 3, g=1.0))
    stack = np.stack([_flatten(g, "raw")] * 3)
    stack[1, 2, 0] = 1.0  # node 3 of the second θ
    with pytest.warns(SingularGradientWarning, match=r"for: r3 of stack entry 1$"):
        _, grads = energy_and_grad(_LevelTables(g), h, stack, "raw")
    assert np.all(np.isfinite(grads))


@pytest.mark.parametrize("contract", [True, False])
def test_stack_errors_name_the_failing_entry(contract, monkeypatch):
    # scaling both edge factors of the root by 1 + eps scales <psi|psi> by
    # about 1 + 2 eps; the check's tolerance is 1e-10
    g = random_graph("accordion", 4, 3)
    topo = _LevelTables(g)
    h = build_model(ModelSpec("heisenberg", 4))
    stack = np.stack([_flatten(g, "trig")] * 4)
    stack[2, topo.root, 1] = 0.5  # marks the third θ
    chart = exact._chart

    def off_norm(eps):
        def scaled(theta, mode, out=None):
            table = chart(theta, mode, out)
            marked = theta[:, topo.root, 1] == 0.5
            table[0, marked, topo.root] *= 1.0 + eps
            return table
        return scaled

    monkeypatch.setattr(exact, "_contracts", lambda topo, h: contract)
    monkeypatch.setattr(exact, "_TRANSFER_BYTES", 1)  # one θ per chunk
    monkeypatch.setattr(exact, "_chart", off_norm(1e-10))
    with pytest.raises(ValueError, match=r"^stack entry 2: state not normalized"):
        energy_and_grad(topo, h, stack, "trig")
    monkeypatch.setattr(exact, "_chart", off_norm(2.5e-11))
    energies, _ = energy_and_grad(topo, h, stack, "trig")
    assert energies.shape == (4,)


@pytest.mark.parametrize("contract", [True, False])
def test_stack_residue_errors_name_the_failing_entry(contract, monkeypatch):
    g = random_graph("accordion", 4, 3)
    topo = _LevelTables(g)
    h = build_model(ModelSpec("heisenberg", 4))
    stack = np.stack([_flatten(g, "trig")] * 4)
    owner, name = (exact._Contraction, "__call__") if contract else (exact, "_dense")
    engine = getattr(owner, name)

    def skewed(imag):  # i * imag added to <psi|H|psi> of the third θ of one call
        def run(*args):
            norm2, value, grad = engine(*args)
            return norm2, value + 1j * imag * (np.arange(len(value)) == 2), grad
        return run

    monkeypatch.setattr(exact, "_contracts", lambda topo, h: contract)
    monkeypatch.setattr(owner, name, skewed(2e-10))
    with pytest.raises(ValueError, match=r"^stack entry 2: expectation has a non-real residue"):
        energy_and_grad(topo, h, stack, "trig")
    monkeypatch.setattr(owner, name, skewed(5e-11))
    energies, _ = energy_and_grad(topo, h, stack, "trig")
    assert energies.shape == (4,)


@pytest.mark.parametrize("contract", [True, False])
def test_stack_entry_with_r_outside_the_box_is_rejected(contract, monkeypatch):
    # arccos(1.5) is NaN, so every energy and gradient of that θ would be NaN
    g = random_graph("accordion", 4, 3)
    topo = _LevelTables(g)
    h = build_model(ModelSpec("heisenberg", 4))
    stack = np.stack([_flatten(g, "raw")] * 3)
    stack[1, topo.root, 0] = 1.5
    monkeypatch.setattr(exact, "_contracts", lambda topo, h: contract)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"^stack entry 1: "):
        energy_and_grad(topo, h, stack, "raw")


@pytest.mark.parametrize("stacked", [True, False])
@pytest.mark.parametrize("r", [1.5, -0.25, math.nan])
def test_raw_r_outside_the_box_names_the_node_and_value(stacked, r):
    # checked before the chart, whose arccos would warn and return NaN
    g = random_graph("accordion", 4, 3)
    topo = _LevelTables(g)
    h = build_model(ModelSpec("heisenberg", 4))
    stack = np.stack([_flatten(g, "raw")] * 3)
    stack[1, 2, 0] = r
    where = "stack entry 1: " if stacked else ""
    message = re.escape(f"{where}r{topo.node_ids[2]} = {r!r} lies outside [0, 1]")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            energy_and_grad(topo, h, stack if stacked else stack[1], "raw")


def test_transfer_basis_is_built_once_per_topology_and_operator(monkeypatch):
    from vdd.experiments import VarianceScanConfig, variance_scan
    from vdd.optimize import TrainConfig, train

    built = []
    original = exact._Basis

    def counted(topo, h):
        built.append(topo.num_qubits)
        return original(topo, h)

    monkeypatch.setattr(exact, "_Basis", counted)
    train(TrainConfig(model=ModelSpec("heisenberg", 6), epochs=20, seed=0))
    assert built == [6]  # once per run, not per epoch
    variance_scan(VarianceScanConfig(model="heisenberg", n_values=(6, 8), tracked_params=("r1",),
                                     num_seeds=40))
    assert built == [6, 6, 8]  # once per n, not per seed or chunk
    # another operator on the same topology gets its own basis
    g = random_graph("accordion", 6, 4)
    topo = _LevelTables(g)
    for spec in (ModelSpec("heisenberg", 6), ModelSpec("tfim", 6, g=0.7)):
        energy, _ = energy_and_grad(topo, build_model(spec), _flatten(g, "raw"), "raw")
        assert energy == pytest.approx(exact_energy(g, build_model(spec)), abs=1e-12)
    assert built == [6, 6, 8, 6, 6, 6, 6]


def test_contraction_buffers_are_compiled_once_per_operator_and_stack_size(monkeypatch):
    from vdd.experiments import VarianceScanConfig, variance_scan
    from vdd.optimize import TrainConfig, train

    compiled, bases = [], []
    contraction, basis = exact._Contraction, exact._Basis

    def counted(topo, h, count):
        compiled.append((topo.num_qubits, count))
        return contraction(topo, h, count)

    def counted_basis(topo, h):
        bases.append(topo.num_qubits)
        return basis(topo, h)

    monkeypatch.setattr(exact, "_Contraction", counted)
    monkeypatch.setattr(exact, "_Basis", counted_basis)
    train(TrainConfig(model=ModelSpec("heisenberg", 6), epochs=20, seed=0))
    assert compiled == [(6, 1)] and bases == [6]  # once per run, not per epoch
    variance_scan(VarianceScanConfig(model="heisenberg", n_values=(6, 8), tracked_params=("r1",),
                                     num_seeds=40))
    scan = compiled[1:]  # per n, one chunk size (40 θ at n = 8 come as 14, 14 and 12 padded to 14)
    assert len(set(scan)) == len(scan) and {n for n, _ in scan} == {6, 8} and bases == [6, 6, 8]
    assert scan == [(6, 20), (8, 14)]  # one size per n
    g = random_graph("accordion", 6, 4)
    topo = _LevelTables(g)
    theta = _flatten(g, "trig")
    heisenberg, tfim = build_model(ModelSpec("heisenberg", 6)), build_model(ModelSpec("tfim", 6))
    del compiled[:], bases[:]
    for h, stack in ((heisenberg, theta), (heisenberg, theta), (heisenberg, np.stack([theta] * 3)),
                     (heisenberg, theta), (tfim, theta), (heisenberg, np.stack([theta] * 3))):
        energy_and_grad(topo, h, stack, "trig")
    # a stack size is compiled once per operator, and the basis once per operator
    assert compiled == [(6, 1), (6, 3), (6, 1), (6, 3)] and bases == [6, 6, 6]


@pytest.mark.parametrize("count", [1, 3])
def test_results_do_not_alias_the_compiled_buffers(count, monkeypatch):
    # the contraction writes every call into buffers compiled once, and
    # energy_and_grad copies its results out, so a later call leaves them be
    g = random_graph("accordion", 7, 2)
    topo = _LevelTables(g)
    h = build_model(ModelSpec("heisenberg", 7, boundary="periodic"))
    assert _contracts(topo, h)
    stack = np.stack([_flatten(g, "trig") + 0.1 * k for k in range(count)])
    for chunk_bytes in (exact._TRANSFER_BYTES, 1):  # the whole stack, then one θ per chunk
        monkeypatch.setattr(exact, "_TRANSFER_BYTES", chunk_bytes)
        first = (energy_and_grad(topo, h, stack, "trig")
                 + energy_and_grad(topo, h, stack[-1], "trig"))
        kept = tuple(np.copy(part) for part in first)
        energy_and_grad(topo, h, stack + 0.3, "trig")
        energy_and_grad(topo, h, stack[-1] + 0.5, "trig")
        for before, after in zip(kept, first):
            assert np.array_equal(before, after)


@pytest.mark.parametrize("kind,contract", [("accordion", True), ("universal", False)],
                         ids=["contraction", "dense"])
def test_the_evaluator_returns_views_only_from_the_contraction(kind, contract):
    # _evaluator's rule: the contraction's results are views of its buffers,
    # which its next call overwrites; the dense engine's are fresh arrays
    g = random_graph(kind, 4, 3)
    topo = _LevelTables(g)
    h = build_model(ModelSpec("heisenberg", 4))
    assert _contracts(topo, h) == contract
    evaluate, step = exact._evaluator(topo, h, 2)
    stack = np.stack([_flatten(g, "trig") + 0.1 * k for k in range(step)])
    first = evaluate(stack, "trig")
    kept = tuple(np.copy(part) for part in first)
    second = evaluate(stack + 0.3, "trig")
    for before, after, later in zip(kept, first, second):
        assert np.shares_memory(after, later) == contract
        assert np.array_equal(after, later if contract else before)
        assert not np.array_equal(before, later)


@pytest.mark.parametrize("kind,n", [("accordion", 12), ("universal", 4)])
def test_exact_energy_takes_no_gradient(kind, n, monkeypatch):
    def refused(*args):
        raise AssertionError("a gradient was taken")

    g = random_graph(kind, n, 1)
    h = build_model(ModelSpec("heisenberg", n))
    expected = expectation(h, to_state_vector(g).amps)
    monkeypatch.setattr(exact._Contraction, "__call__", refused)
    monkeypatch.setattr(exact, "_dense", refused)
    assert exact_energy(g, h) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("kind", ["accordion", "product"])
@pytest.mark.parametrize("spec", [ModelSpec("heisenberg", 7), ModelSpec("tfim", 7, g=0.7),
                                  ModelSpec("heisenberg", 7, boundary="periodic")])
def test_each_entry_of_a_stack_equals_a_one_theta_contraction(kind, spec):
    # a stack runs the np.matmul sweeps, one θ the np.dot sweeps on 2-D views
    g = random_graph(kind, 7, 5)
    topo = _LevelTables(g)
    h = build_model(spec)
    assert _contracts(topo, h)
    draws = np.random.default_rng(3).random((4, len(topo.node_ids), 3))
    stack = np.stack([np.pi * (draws[..., 0] - 0.5), 6.0 * draws[..., 1], 6.0 * draws[..., 2]], -1)
    energies, grads = energy_and_grad(topo, h, stack, "trig")
    for theta, energy, grad in zip(stack, energies, grads):
        one_energy, one_grad = energy_and_grad(topo, h, theta, "trig")
        assert energy == pytest.approx(one_energy, rel=0, abs=1e-12)
        np.testing.assert_allclose(grad, one_grad, rtol=0, atol=1e-12)


def test_trig_gradient_is_chain_rule_of_raw():
    g = random_graph("accordion", 4, 12)
    h = build_model(ModelSpec("heisenberg", 4))
    raw = exact_gradient(g, h, mode="raw").entries.copy()
    trig = exact_gradient(g, h, mode="trig").entries.copy()
    labels = parameter_labels(g)
    for i, lab in enumerate(labels):
        if lab.startswith("r"):
            nid = int(lab[1:])
            r = g.nodes[nid].params.r
            assert trig[i] == pytest.approx(-math.sqrt(1 - r * r) * raw[i], abs=1e-10)
        else:
            assert trig[i] == raw[i]


def test_finite_difference_validates_step_and_mode():
    g = build_product(2)
    h = build_model(ModelSpec("tfim", 2, g=1.0))
    for bad in (1e-9, 1e-2, 0.0):
        with pytest.raises(ValueError):
            finite_difference(g, h, step=bad)
    with pytest.raises(ValueError):
        exact_gradient(g, h, mode="polar")


def test_finite_difference_handles_boundary_r():
    # one-sided probes at the box edge still produce finite numbers
    g = set_node(build_product(2), 2, 0.0, 0.3, 0.7)
    h = build_model(ModelSpec("tfim", 2, g=0.8))
    gv = finite_difference(g, h, step=1e-5, mode="raw")
    assert np.all(np.isfinite(gv.entries))


@pytest.mark.parametrize("r", [1.0, 0.0, 1e-7])
def test_trig_finite_difference_is_central_at_the_box(r):
    # trig probes move the signed u, so r = cos u on the box is no edge
    base = random_graph("accordion", 4, 7)
    p = base.nodes[2].params
    g = set_node(base, 2, r, p.omega, p.phi)
    h = build_model(ModelSpec("heisenberg", 4))
    got = finite_difference(g, h, step=1e-6, mode="trig").entries
    np.testing.assert_allclose(got, exact_gradient(g, h, mode="trig").entries, rtol=0, atol=1e-8)


def test_gradient_vector_norm():
    gv = GradientVector(entries=np.array([3.0, 4.0, 0.0]), node_ids=(1,))
    assert gv.norm == pytest.approx(5.0)
