"""Pauli-string models: action on bit strings, vectors, and ground energies.

Ground energies are frozen from independent dense diagonalization of the
explicitly tensored operators.
"""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from vdd import hamiltonian
from vdd.hamiltonian import (
    ModelSpec,
    PauliHamiltonian,
    PauliString,
    apply_string,
    apply_to_vector,
    build_model,
    dense_matrix,
    expectation,
    ground_energy,
    tfim_ground_energy,
    xx_ground_energy,
)
from vdd.state import CapacityError

SQRT5 = math.sqrt(5.0)

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# independently diagonalized reference energies
FROZEN_E0 = [
    (ModelSpec("tfim", 2, g=1.0), -2.236067977499789),  # -sqrt(5)
    (ModelSpec("heisenberg", 2), -3.0),
    (ModelSpec("heisenberg", 4), -6.464101615137755),
    (ModelSpec("heisenberg", 6), -9.974308535551689),
    (ModelSpec("heisenberg", 10), -17.03214082913149),
    (ModelSpec("z1z2", 4), -1.0),
    (ModelSpec("tfim", 8, g=10.0), -80.17507824233951),
    (ModelSpec("tfim", 8, g=20.0), -160.0875097692881),
    (ModelSpec("tfim", 8, g=40.0), -320.0437512208175),
]


def test_pauli_string_validation():
    PauliString(1.0, "XZYI")
    with pytest.raises(ValueError):
        PauliString(1.0, "XQ")
    with pytest.raises(ValueError):
        PauliString(float("inf"), "XX")


def test_apply_string_single_qubit_actions():
    # returns (b', phase) with <b'|s|b> = coeff * phase; Y|0> = i|1>, Y|1> = -i|0>
    assert apply_string(PauliString(1.0, "X"), (0,)) == ((1,), 1.0 + 0j)
    assert apply_string(PauliString(1.0, "Z"), (1,)) == ((1,), -1.0 + 0j)
    assert apply_string(PauliString(1.0, "Y"), (0,)) == ((1,), 1j)
    assert apply_string(PauliString(1.0, "Y"), (1,)) == ((0,), -1j)
    assert apply_string(PauliString(2.5, "I"), (1,)) == ((1,), 1.0 + 0j)


def test_apply_string_multi_qubit():
    bits, phase = apply_string(PauliString(-0.5, "XYZ"), (0, 1, 1))
    assert bits == (1, 0, 1)
    assert phase == pytest.approx((-1j) * (-1.0))


def test_apply_string_matches_dense_matrix_element():
    rng = np.random.default_rng(17)
    h = build_model(ModelSpec("heisenberg", 3, jx=0.4, jy=-1.2, jz=0.9))
    m = dense_matrix(h)
    for s in h.terms:
        for _ in range(4):
            bits = tuple(rng.integers(0, 2, size=3))
            out, phase = apply_string(s, bits)
            col = int("".join(map(str, bits)), 2)
            row = int("".join(map(str, out)), 2)
            term_m = s.coeff * np.asarray(
                np.kron(np.kron(_PAULI[s.ops[0]], _PAULI[s.ops[1]]), _PAULI[s.ops[2]])
            )
            assert term_m[row, col] == pytest.approx(s.coeff * phase, abs=1e-12)
    assert m.shape == (8, 8)


def test_apply_to_vector_matches_dense():
    rng = np.random.default_rng(5)
    for spec in (ModelSpec("tfim", 5, g=1.3), ModelSpec("heisenberg", 4, jx=0.3, jy=1.1, jz=-0.7)):
        h = build_model(spec)
        v = rng.normal(size=2**spec.n) + 1j * rng.normal(size=2**spec.n)
        np.testing.assert_allclose(apply_to_vector(h, v), dense_matrix(h) @ v, atol=1e-12)


def _tensor_matrix(h):
    """Sum of coeff * explicit Kronecker products: independent of the compiled action."""
    m = 0
    for s in h.terms:
        term = np.ones((1, 1), dtype=complex)
        for op in s.ops:
            term = np.kron(term, _PAULI[op])
        m = m + s.coeff * term
    return m


@pytest.mark.parametrize(
    "spec,masks",
    [
        # bonds (1, 2) and (2, 1) fold into one flip mask: XX, YY, XX, YY
        (ModelSpec("heisenberg", 2, jx=0.6, jy=-1.3, jz=0.8, boundary="periodic"), 2),
        # the wrap bond Z4 Z1 joins the diagonal; each X_i is its own mask
        (ModelSpec("tfim", 4, g=0.7, boundary="periodic"), 5),
    ],
    ids=["heisenberg2-periodic", "tfim4-periodic"],
)
def test_compiled_action_named_cases(spec, masks):
    h = build_model(spec)
    assert len(h._bit_groups) == masks
    rng = np.random.default_rng(11)
    v = rng.normal(size=2**spec.n) + 1j * rng.normal(size=2**spec.n)
    ref = _tensor_matrix(h)
    np.testing.assert_allclose(apply_to_vector(h, v), ref @ v, atol=1e-12)
    np.testing.assert_allclose(dense_matrix(h), ref, atol=1e-12)


@pytest.mark.parametrize("shape", [(8, 8), (8, 1)])
def test_apply_and_expectation_reject_non_vector_input(shape):
    h = build_model(ModelSpec("tfim", 3, g=0.5))
    amps = np.zeros(shape, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        apply_to_vector(h, amps)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        expectation(h, amps)


def test_hamiltonian_compiles_once(monkeypatch):
    import vdd.hamiltonian as ham
    from vdd.ansatz import InitScheme, build_ansatz, init_params
    from vdd.exact import _LevelTables, _chart, _flatten, exact_gradient
    from vdd.vmc import VmcBatch, _batch_local_values, _sample

    calls = {"_vector_action": 0, "_column_groups": 0, "_build_mpo": 0}
    for name in calls:
        def counted(h, _name=name, _original=getattr(ham, name)):
            calls[_name] += 1
            return _original(h)

        monkeypatch.setattr(ham, name, counted)
    h = build_model(ModelSpec("heisenberg", 4))
    g = init_params(build_ansatz("accordion", 4), InitScheme("uniform", seed=0))
    v = np.full(16, 0.25, dtype=complex)
    apply_to_vector(h, v)
    apply_to_vector(h, v)
    topo = _LevelTables(g)
    batch = VmcBatch(topo, 2)
    batch.edges = _chart(_flatten(g, "raw"), "raw")
    _sample(batch, np.random.default_rng(0))
    _batch_local_values(batch, h)
    _batch_local_values(batch, h)
    exact_gradient(g, h)  # the engine's cost rule reads the operator chain
    exact_gradient(g, h)
    assert calls == {"_vector_action": 1, "_column_groups": 1, "_build_mpo": 1}


@pytest.mark.parametrize("spec,bond_dim", [
    (ModelSpec("heisenberg", 6), 5),
    (ModelSpec("heisenberg", 6, boundary="periodic"), 8),
    (ModelSpec("tfim", 6, g=0.5), 3),
    (ModelSpec("tfim", 6, g=0.5, boundary="periodic"), 4),
])
def test_operator_chain_shares_channels_between_disjoint_terms(spec, bond_dim):
    # two end channels plus one per term crossing the busiest bond
    assert build_model(spec)._mpo.shape == (6, bond_dim, bond_dim, 2, 2)


def _loop_mpo(h):
    """The operator chain built one term at a time: the reference that
    `_build_mpo`, built over all terms at once, must equal bit for bit."""
    n = h.num_qubits
    pauli = {op: hamiltonian._single_site(op) for op in "IXYZ"}
    spans = []  # (first qubit, last qubit, term), in order of first qubit
    for t in h.terms:
        sites = [q for q, op in enumerate(t.ops) if op != "I"] or [0]
        spans.append((sites[0], sites[-1], t))
    spans.sort(key=lambda span: span[0])
    ends, channels = [], []
    for first, last, _ in spans:
        if first == last:
            channels.append(None)
            continue
        free = next((c for c, end in enumerate(ends) if end <= first), len(ends))
        if free == len(ends):
            ends.append(last)
        else:
            ends[free] = last
        channels.append(free + 1)
    d = len(ends) + 2
    w = np.zeros((n, d, d, 2, 2), dtype=np.complex128)
    w[:, 0, 0] = w[:, d - 1, d - 1] = pauli["I"]
    for (first, last, t), c in zip(spans, channels):
        if c is None:
            w[first, 0, d - 1] += t.coeff * pauli[t.ops[first]]
            continue
        w[first, 0, c] = t.coeff * pauli[t.ops[first]]
        for q in range(first + 1, last):
            w[q, c, c] = pauli[t.ops[q]]
        w[last, c, d - 1] = pauli[t.ops[last]]
    return w


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("model,couplings", [
    ("z1z2", {}), ("tfim", {"g": 0.0}), ("tfim", {"g": -0.7}), ("heisenberg", {}),
    ("heisenberg", {"jx": 0.5, "jy": 0.0, "jz": -1.5}),
])
def test_operator_chain_equals_the_term_by_term_reference(model, couplings, boundary):
    for n in range(2, 15):
        h = build_model(ModelSpec(model, n, boundary=boundary, **couplings))
        got, want = hamiltonian._build_mpo(h), _loop_mpo(h)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_operator_chain_adds_one_qubit_terms_that_share_an_entry():
    h = PauliHamiltonian(3, (PauliString(0.5, "III"), PauliString(-1.0, "IXI"),
                             PauliString(2.0, "IXI"), PauliString(0.25, "III"),
                             PauliString(1.5, "ZIY"), PauliString(0.75, "IIZ")))
    got, want = hamiltonian._build_mpo(h), _loop_mpo(h)
    assert got.shape == want.shape == (3, 3, 3, 2, 2) and got.tobytes() == want.tobytes()
    assert hamiltonian._build_mpo(PauliHamiltonian(2, ())).shape == (2, 2, 2, 2, 2)


@pytest.mark.parametrize("g", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", range(4, 13))
def test_free_fermion_energy_matches_the_eigensolver(n, g):
    spec = ModelSpec("tfim", n, g=g)
    assert tfim_ground_energy(spec) == pytest.approx(ground_energy(build_model(spec))[0],
                                                     rel=0, abs=1e-10)


def test_free_fermion_energy_is_for_the_open_tfim_chain_only():
    for spec in (ModelSpec("tfim", 4, g=1.0, boundary="periodic"), ModelSpec("heisenberg", 4)):
        with pytest.raises(ValueError):
            tfim_ground_energy(spec)


@pytest.mark.parametrize("j", [1.0, -0.6])
@pytest.mark.parametrize("n", [4, 7, 10, 11, 12])
def test_xx_free_fermion_energy_matches_the_eigensolver(n, j):
    spec = ModelSpec("heisenberg", n, jx=j, jy=j, jz=0.0)
    assert xx_ground_energy(spec) == pytest.approx(ground_energy(build_model(spec))[0],
                                                   rel=0, abs=1e-10)


def test_xx_free_fermion_energy_is_for_the_open_xx_chain_only():
    for spec in (ModelSpec("heisenberg", 4, jz=0.0, boundary="periodic"),
                 ModelSpec("heisenberg", 4),
                 ModelSpec("heisenberg", 4, jx=1.0, jy=0.5, jz=0.0),
                 ModelSpec("tfim", 4, g=1.0)):
        with pytest.raises(ValueError):
            xx_ground_energy(spec)


def test_dense_matrix_is_hermitian():
    for spec in (ModelSpec("tfim", 3, g=0.7), ModelSpec("heisenberg", 3)):
        m = dense_matrix(build_model(spec))
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)


def test_expectation_matches_quadratic_form():
    rng = np.random.default_rng(8)
    h = build_model(ModelSpec("heisenberg", 4))
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    v /= np.linalg.norm(v)
    assert expectation(h, v) == pytest.approx(
        float((v.conj() @ dense_matrix(h) @ v).real), abs=1e-12
    )


def test_expectation_rejects_a_non_finite_value():
    # each coefficient is finite, but their sum overflows on a normalized state
    h = PauliHamiltonian(num_qubits=1, terms=(PauliString(1e308, "Z"), PauliString(1e308, "Z")))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^expectation is not finite"):
            expectation(h, np.array([1.0, 0.0], dtype=complex))


def test_term_counts_open_vs_periodic():
    tfim_open = build_model(ModelSpec("tfim", 6, g=2.0))
    tfim_periodic = build_model(ModelSpec("tfim", 6, g=2.0, boundary="periodic"))
    assert len(tfim_open.terms) == 5 + 6
    assert len(tfim_periodic.terms) == 6 + 6
    heis = build_model(ModelSpec("heisenberg", 5))
    assert len(heis.terms) == 3 * 4


def test_tfim_g0_ground_energy_is_bond_count():
    for n in range(2, 13):
        e0, state = ground_energy(build_model(ModelSpec("tfim", n, g=0.0)))
        assert e0 == pytest.approx(-(n - 1), abs=1e-9)
        assert np.sum(np.abs(state.amps) ** 2) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("spec,e0", FROZEN_E0, ids=lambda v: str(v))
def test_frozen_ground_energies(spec, e0):
    got, state = ground_energy(build_model(spec))
    assert got == pytest.approx(e0, abs=1e-9)
    # returned state achieves its energy
    assert expectation(build_model(spec), state.amps) == pytest.approx(e0, abs=1e-7)


def test_tfim_n2_g1_closed_form():
    e0, _ = ground_energy(build_model(ModelSpec("tfim", 2, g=1.0)))
    assert e0 == pytest.approx(-SQRT5, abs=1e-12)


@pytest.mark.parametrize("spec", [
    pytest.param(ModelSpec("tfim", 10, g=1.7), id="tfim-10"),
    pytest.param(ModelSpec("tfim", 11, g=0.5), id="tfim-11"),
    # an odd ring: its ground level is degenerate
    pytest.param(ModelSpec("heisenberg", 11, boundary="periodic"), id="heisenberg-11-periodic"),
    pytest.param(ModelSpec("heisenberg", 10, jz=0.0), id="xx-10"),
    pytest.param(ModelSpec("heisenberg", 10, jx=0.7, jy=1.3, jz=-0.4), id="xyz-10"),
    # diagonal operators: the iteration breaks down (beta = 0) at convergence
    pytest.param(ModelSpec("tfim", 10, g=0.0), id="tfim-g0-10"),
    pytest.param(ModelSpec("z1z2", 10), id="z1z2-10"),
])
def test_iterative_and_dense_eigensolvers_agree(spec):
    # n >= 10 runs the Lanczos iteration; compare against the dense answer
    h = build_model(spec)
    e_iter, _ = ground_energy(h)
    evals = np.linalg.eigvalsh(dense_matrix(h))
    assert e_iter == pytest.approx(float(evals[0]), abs=1e-10)


def test_iterative_eigensolver_is_deterministic():
    h = build_model(ModelSpec("heisenberg", 10))
    (e1, v1), (e2, v2) = ground_energy(h), ground_energy(h)
    assert e1 == e2
    assert np.array_equal(v1.amps, v2.amps)


def test_ground_solve_does_not_import_scipy_sparse():
    # importing scipy.sparse.linalg costs more than the solve; keep it out
    code = ("import sys, vdd; "
            "vdd.ground_energy(vdd.build_model(vdd.ModelSpec('heisenberg', 10))); "
            "print('scipy.sparse' in sys.modules)")
    src = os.path.dirname(os.path.dirname(hamiltonian.__file__))  # the vdd under test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_lanczos_non_convergence_falls_back_to_dense(monkeypatch):
    # a budget of two Krylov steps misses the residual contract
    monkeypatch.setattr(hamiltonian, "_KRYLOV_STEPS", 2)
    h = build_model(ModelSpec("tfim", 10, g=1.7))
    e0, _ = ground_energy(h)
    assert e0 == pytest.approx(float(np.linalg.eigvalsh(dense_matrix(h))[0]), abs=1e-8)


def test_other_eigensolver_errors_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(hamiltonian, "apply_to_vector", broken)
    with pytest.raises(RuntimeError, match="broken solver"):
        ground_energy(build_model(ModelSpec("tfim", 10, g=1.7)))


def test_ground_energy_capacity_cap():
    with pytest.raises(CapacityError):
        ground_energy(build_model(ModelSpec("tfim", 13, g=1.0)))


def test_z1z2_spectrum():
    h = build_model(ModelSpec("z1z2", 3))
    evals = np.linalg.eigvalsh(dense_matrix(h))
    assert evals[0] == pytest.approx(-1.0, abs=1e-12)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("xy", 4)
    with pytest.raises(ValueError):
        ModelSpec("tfim", 1)
    with pytest.raises(ValueError):
        ModelSpec("tfim", 4, boundary="twisted")
    with pytest.raises(ValueError):
        ModelSpec("tfim", 4, g=float("nan"))


def test_hamiltonian_is_value_like():
    a = build_model(ModelSpec("tfim", 3, g=0.5))
    b = build_model(ModelSpec("tfim", 3, g=0.5))
    assert isinstance(a, PauliHamiltonian)
    assert a == b
