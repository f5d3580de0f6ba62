"""Property tests over random leveled DAGs, not only the three builders.

Every graph drawn here passes `validate`: level 1 holds the root's target,
every edge goes down one level, and nodes no path reaches are dropped.
Node ids are shuffled so that sorted-id order differs from level order.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdd.exact as exact
import vdd.hamiltonian as hamiltonian
import vdd.vmc as vmc
from vdd.ansatz import ANSATZ_KINDS, InitScheme, build_ansatz, build_automaton, init_params
from vdd.exact import _Contraction, _LevelTables, _chart, _flatten, energy_and_grad
from vdd.exact import exact_gradient, finite_difference, to_state_vector
from vdd.graph import TERMINAL, Node, ParamTriple, VddGraph, amplitude, deserialize, serialize
from vdd.graph import edge_amplitudes, validate
from vdd.hamiltonian import ModelSpec, PauliHamiltonian, PauliString, apply_string
from vdd.hamiltonian import apply_to_vector, build_model, dense_matrix
from vdd.state import bits_of_index, index_of_bits
from vdd.vmc import VmcBatch, _draw, _sample, local_estimator, sample_batch, vmc_gradient
from vdd.vmc import vmc_gradient_stderr
from vmc_reference import dense_statistics

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)


def assert_statistics_match_dense_reference(g, batch):
    """The edge-scatter gradient and jackknife against the stacked per-string O."""
    gradient, stderr = dense_statistics(g, batch)
    np.testing.assert_allclose(vmc_gradient(batch).entries, gradient, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(vmc_gradient_stderr(batch), stderr, rtol=1e-12, atol=1e-12)


@st.composite
def leveled_dags(draw, max_qubits=5, max_width=3):
    """A valid graph with r in [0.05, 0.95], so every edge has weight >= 0.05."""
    n = draw(st.integers(1, max_qubits))
    widths = [1] + [draw(st.integers(1, max_width)) for _ in range(n - 1)]
    children = [
        [(draw(st.integers(0, widths[l + 1] - 1)), draw(st.integers(0, widths[l + 1] - 1)))
         for _ in range(widths[l])]
        for l in range(n - 1)
    ]
    # keep the nodes reachable from the root, level by level
    reached = [[0]]
    for l in range(n - 1):
        reached.append(sorted({c for k in reached[l] for c in children[l][k]}))
    total = sum(len(level) for level in reached)
    ids = draw(st.permutations(range(1, total + 1)))
    id_of = {}
    for l, level in enumerate(reached):
        for k in level:
            id_of[l, k] = ids[len(id_of)]
    unit = st.floats(0.05, 0.95)
    angle = st.floats(0.0, 2.0 * math.pi)
    nodes = {}
    for (l, k), nid in id_of.items():
        if l == n - 1:
            c0 = c1 = TERMINAL
        else:
            c0, c1 = (id_of[l + 1, c] for c in children[l][k])
        params = ParamTriple(draw(unit), draw(angle), draw(angle))
        nodes[nid] = Node(nid, l + 1, params, c0, c1)
    g = VddGraph(num_qubits=n, global_phase=draw(angle), root_child=id_of[0, 0], nodes=nodes)
    assert validate(g) == []
    return g


COEFF = st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3)
SWAP_XY = str.maketrans("XY", "YX")


@st.composite
def dags_with_hamiltonians(draw, max_qubits=5):
    g = draw(leveled_dags(max_qubits=max_qubits))
    n = g.num_qubits
    ops = st.text("IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.builds(PauliString, COEFF, ops), min_size=1, max_size=4))
    # the X<->Y partner of a drawn term shares its flip mask: a multi-term group
    terms.append(PauliString(draw(COEFF), terms[0].ops.translate(SWAP_XY)))
    return g, PauliHamiltonian(num_qubits=n, terms=tuple(terms))


@st.composite
def hamiltonians(draw, max_qubits=6):
    """Random terms plus the cases the compiled action treats apart."""
    n = draw(st.integers(1, max_qubits))

    def ops(alphabet):
        return draw(st.text(alphabet, min_size=n, max_size=n))

    drawn = [ops("IXYZ") for _ in range(draw(st.integers(1, 4)))]
    strings = [
        "I" * n,  # identity only
        ops("IZ"),  # Z only: diagonal
        ops("YYYI"),  # Y heavy
        *drawn,
        *(s.translate(SWAP_XY) for s in drawn),  # repeated flip masks
    ]
    if n >= 3:
        strings.append("X" + "I" * (n - 2) + "Y")  # support at both ends only
    return PauliHamiltonian(n, tuple(PauliString(draw(COEFF), s) for s in strings))


@SETTINGS
@given(hamiltonians(), st.data())
def test_operator_chain_multiplies_out_to_the_dense_matrix(h, data):
    # with a one-qubit term drawn twice and a drawn term repeated
    n = h.num_qubits
    q = data.draw(st.integers(0, n - 1))
    one = "I" * q + data.draw(st.sampled_from("XYZ")) + "I" * (n - 1 - q)
    h = PauliHamiltonian(n, h.terms + (PauliString(data.draw(COEFF), one),
                                       PauliString(data.draw(COEFF), one), h.terms[-1]))
    w = hamiltonian._build_mpo(h)
    chain = w[0, 0]  # (D, rows, cols) from channel 0, qubit 1 the most significant bit
    for level in w[1:]:
        rows, cols = chain.shape[1:]
        chain = np.einsum("arc,abst->brsct", chain, level).reshape(len(level), 2 * rows, 2 * cols)
    np.testing.assert_allclose(chain[-1], dense_matrix(h), rtol=0, atol=1e-12)


@SETTINGS
@given(leveled_dags())
def test_state_is_normalized_and_matches_path_walks(g):
    amps = to_state_vector(g).amps
    assert float(np.sum(np.abs(amps) ** 2)) == pytest.approx(1.0, abs=1e-12)
    for idx in range(amps.shape[0]):
        assert amps[idx] == pytest.approx(amplitude(g, bits_of_index(idx, g.num_qubits)), abs=1e-14)


@SETTINGS
@given(leveled_dags(), st.sampled_from(["raw", "trig"]))
def test_edge_tables_are_indexed_by_row_and_bit(g, mode):
    # the one layout every kernel reads: [row, bit] is the node's bit-edge
    topo = _LevelTables(g)
    edge, slope = _chart(_flatten(g, mode), mode)
    assert topo.child.shape == edge.shape == slope.shape == (len(g.nodes), 2)
    row_of = {node_id: k for k, node_id in enumerate(g.sorted_ids())}
    for row, node_id in enumerate(g.sorted_ids()):
        node = g.nodes[node_id]
        r, eiw, eip = node.params.r, np.exp(1j * node.params.omega), np.exp(1j * node.params.phi)
        s = math.sqrt(1.0 - r * r)
        # d/dr of (r e^{i omega}, s e^{i phi}), and d/du with r = cos u, s = sin u
        derivative = (eiw, -r / s * eip) if mode == "raw" else (-s * eiw, r * eip)
        for bit, child in enumerate((node.child0, node.child1)):
            assert topo.child[row, bit] == (-1 if child is TERMINAL else row_of[child])
            assert abs(edge[row, bit] - edge_amplitudes(node.params)[bit]) <= 1e-14
            assert abs(slope[row, bit] - derivative[bit]) <= 1e-14


def assert_level_tables_agree(topo):
    """counts, row_of, lone and rejoin against level and slot."""
    n = topo.num_qubits
    assert np.array_equal(topo.row_of[topo.level, topo.slot], np.arange(len(topo.level)))
    assert np.count_nonzero(topo.row_of >= 0) == len(topo.level)  # -1 in empty slots
    assert np.array_equal(topo.counts, np.bincount(topo.level))
    assert np.array_equal(topo.lone, np.where(topo.counts == 1, topo.row_of[:, 0], -1))
    for l in range(n + 1):
        assert topo.rejoin[l] == next((k for k in range(l, n) if topo.lone[k] >= 0), n)


@SETTINGS
@given(leveled_dags())
def test_level_tables_agree(g):
    assert_level_tables_agree(_LevelTables(g))


@pytest.mark.parametrize("kind", ANSATZ_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_level_tables_agree_on_the_builders(kind, n):
    assert_level_tables_agree(_LevelTables(build_ansatz(kind, n)))


@SETTINGS
@given(dags_with_hamiltonians(), st.sampled_from(["raw", "trig"]))
def test_gradient_matches_finite_difference(case, mode):
    g, h = case
    got = exact_gradient(g, h, mode=mode).entries
    ref = finite_difference(g, h, step=1e-6, mode=mode).entries
    np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-7)


def assert_engines_agree(g, h, mode):
    """energy_and_grad by contraction over levels and by the dense engine, to 1e-12."""
    topo = _LevelTables(g)
    theta = _flatten(g, mode)
    results = []
    for contract in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_contracts", lambda topo, h, _contract=contract: _contract)
            results.append(energy_and_grad(topo, h, theta, mode))
    (energy, grad), (dense_energy, dense_grad) = results
    assert energy == pytest.approx(dense_energy, rel=0, abs=1e-12)
    np.testing.assert_allclose(grad, dense_grad, rtol=0, atol=1e-12)


@SETTINGS
@given(dags_with_hamiltonians(max_qubits=6), st.sampled_from(["raw", "trig"]),
       st.floats(0.1, 6.0), COEFF, COEFF)
def test_contraction_matches_the_dense_engine(case, mode, phase, identity, y_heavy):
    g, h = case
    n = g.num_qubits
    g = dataclasses.replace(g, global_phase=phase)
    extra = (PauliString(identity, "I" * n), PauliString(y_heavy, ("YYYI" * n)[:n]))
    assert_engines_agree(g, PauliHamiltonian(n, h.terms + extra), mode)


@SETTINGS
@given(dags_with_hamiltonians(), st.sampled_from(["raw", "trig"]), st.sampled_from([1, 3]),
       st.booleans(), st.integers(0, 2**16))
def test_a_stack_of_thetas_matches_one_theta_at_a_time(case, mode, count, contract, seed):
    g, h = case
    topo = _LevelTables(g)
    draws = np.random.default_rng(seed).random((count, len(topo.node_ids), 3))
    stack = np.stack([0.05 + 0.9 * draws[..., 0], 6.0 * draws[..., 1], 6.0 * draws[..., 2]], -1)
    if mode == "trig":  # a signed u, as training leaves it
        stack[..., 0] = np.arccos(stack[..., 0]) * np.where(draws[..., 1] < 0.5, -1.0, 1.0)
    size = topo.width**2 * h._mpo.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_contracts", lambda topo, h: contract)
        # two θ per contraction: a stack of three is contracted in two chunks
        mp.setattr(exact, "_TRANSFER_BYTES", 2 * g.num_qubits * size * size * 16)
        energies, grads = energy_and_grad(topo, h, stack, mode)
        singles = [energy_and_grad(topo, h, theta, mode) for theta in stack]
    assert energies.shape == (count,) and grads.shape == stack.shape
    np.testing.assert_allclose(energies, [energy for energy, _ in singles], rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads, [grad for _, grad in singles], rtol=0, atol=1e-12)


@pytest.mark.parametrize("spec", [ModelSpec("heisenberg", 2, boundary="periodic"),
                                  ModelSpec("tfim", 2, g=0.7, boundary="periodic"),
                                  ModelSpec("heisenberg", 2, jx=0.5, jy=-1.5, jz=0.3)])
@pytest.mark.parametrize("kind,n", [("product", 2), ("product", 7), ("accordion", 3),
                                    ("accordion", 10), ("universal", 2), ("universal", 4)])
def test_contraction_matches_the_dense_engine_on_the_builders(kind, n, spec):
    # periodic chains carry the wrap bond (n, 1), whose channel spans every level
    g = init_params(build_ansatz(kind, n), InitScheme("uniform", seed=n))
    g = dataclasses.replace(g, global_phase=1.3)
    for mode in ("raw", "trig"):
        assert_engines_agree(g, build_model(dataclasses.replace(spec, n=n)), mode)


@SETTINGS
@given(n=st.integers(2, 6), coeffs=st.tuples(*[st.integers(0, 3)] * 3), width=st.integers(1, 4),
       mode=st.sampled_from(["raw", "trig"]), seed=st.integers(0, 2**16))
def test_automaton_layouts_are_valid_and_the_engines_agree_on_them(n, coeffs, width, mode, seed):
    # the layout of the step (a state + c bit + d) mod W, with uniform parameters
    a, c, d = coeffs

    def step(level, state, bit):
        return (a * state + c * bit + d) % width

    g = init_params(build_automaton(n, step), InitScheme("uniform", seed=seed))
    assert validate(g) == []
    reached = [{0}]
    for l in range(n - 1):
        reached.append({step(l, state, bit) for state in reached[-1] for bit in (0, 1)})
    levels = [node.level for node in g.nodes.values()]
    assert [levels.count(l + 1) for l in range(n)] == [len(states) for states in reached]
    for spec in (ModelSpec("heisenberg", n), ModelSpec("tfim", n, g=0.7)):
        assert_engines_agree(g, build_model(spec), mode)


@SETTINGS
@given(hamiltonians(), st.sampled_from(["product", "accordion"]), st.integers(0, 2**16))
def test_contracted_energy_matches_the_dense_matrix(h, kind, seed):
    g = init_params(build_ansatz(kind, h.num_qubits), InitScheme("uniform", seed=seed))
    contraction = _LevelTables(g).compiled(h, _Contraction, 1)
    norm2, value, _ = contraction(_flatten(g, "raw")[None], "raw")
    psi = to_state_vector(g).amps
    assert norm2[0] == pytest.approx(1.0, rel=0, abs=1e-12)
    assert value[0] == pytest.approx(np.vdot(psi, dense_matrix(h) @ psi), rel=0, abs=1e-12)


@SETTINGS
@given(hamiltonians(), st.integers(0, 2**32 - 1))
def test_compiled_action_matches_per_string_oracle(h, seed):
    n = h.num_qubits
    oracle = np.zeros((2**n, 2**n), dtype=np.complex128)
    for col in range(2**n):
        for term in h.terms:
            out, phase = apply_string(term, bits_of_index(col, n))
            oracle[index_of_bits(out), col] += term.coeff * phase
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    np.testing.assert_allclose(apply_to_vector(h, v), oracle @ v, rtol=0, atol=1e-12)


@SETTINGS
@given(leveled_dags())
def test_serialize_round_trips(g):
    assert deserialize(serialize(g)) == g


@SETTINGS
@given(dags_with_hamiltonians(max_qubits=8), st.sampled_from(["raw", "trig"]))
def test_batch_kernels_match_per_string_references(case, mode):
    # wide levels let one sample's flipped path rejoin at once and another's
    # run to the last level
    g, h = case
    batch = sample_batch(g, h, 16, seed=3, mode=mode)
    for row in range(batch.batch_size):
        bits = tuple(int(b) for b in batch.samples[row])
        assert batch.local_values[row] == pytest.approx(
            local_estimator(g, h, bits), rel=1e-12, abs=1e-12
        )
    assert_statistics_match_dense_reference(g, batch)


@SETTINGS
@given(
    st.sampled_from(ANSATZ_KINDS),
    st.integers(2, 8),
    st.sampled_from([ModelSpec("heisenberg", 2, boundary="periodic"),
                     ModelSpec("tfim", 2, g=0.7, boundary="periodic"),
                     ModelSpec("heisenberg", 2, jx=0.5, jy=-1.5, jz=0.3)]),
    st.integers(0, 2**16),
    st.sampled_from(["raw", "trig"]),
)
def test_segment_ratios_on_the_builders(kind, n, spec, seed, mode):
    # periodic chains carry the wrap bond (n, 1), whose flip spans every level
    g = init_params(build_ansatz(kind, n), InitScheme("uniform", seed=seed))
    h = build_model(dataclasses.replace(spec, n=n))
    batch = sample_batch(g, h, 24, seed=5, mode=mode)
    for row in range(batch.batch_size):
        bits = tuple(int(b) for b in batch.samples[row])
        assert batch.local_values[row] == pytest.approx(
            local_estimator(g, h, bits), rel=1e-12, abs=1e-12
        )
    assert_statistics_match_dense_reference(g, batch)


def assert_local_values_match_the_oracle(g, h, batch):
    for row in range(batch.batch_size):
        bits = tuple(int(b) for b in batch.samples[row])
        assert batch.local_values[row] == pytest.approx(
            local_estimator(g, h, bits), rel=1e-12, abs=1e-12
        )


def walked_groups(topo, h, batch):
    """The flip masks of the non-diagonal groups whose segment is walked."""
    segments = topo.compiled(h, vmc._Segments, batch.batch_size).groups
    return [flip.tolist() for (flip, _), segment in zip(h._bit_groups, segments)
            if flip.size and segment is None]


@SETTINGS
@given(dags_with_hamiltonians(max_qubits=8), st.sampled_from(["raw", "trig"]))
def test_tabulated_and_walked_local_values_match_the_oracle(case, mode):
    # every group tabulated, then every group walked; a group whose Z or Y
    # qubits leave its segment [flip[0], rejoin[flip[-1] + 1]) is walked in both
    g, h = case
    topo = _LevelTables(g)
    flips = [flip.tolist() for flip, _ in h._bit_groups if flip.size]
    leaving = [flip.tolist() for flip, terms in h._bit_groups if flip.size and any(
        np.any((zy < flip[0]) | (zy >= topo.rejoin[flip[-1] + 1])) for _, zy in terms)]
    for tabulate in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vmc, "_tabulates", lambda keys, length, count: tabulate)
            topo = _LevelTables(g)  # a fresh one: the tables are kept on the topology
            batch = _draw(VmcBatch(topo, 16), h, _flatten(g, mode), mode, np.random.default_rng(3))
            assert walked_groups(topo, h, batch) == (leaving if tabulate else flips)
        assert_local_values_match_the_oracle(g, h, batch)


@pytest.mark.parametrize("mode", ["raw", "trig"])
def test_one_draw_tabulates_short_segments_and_walks_the_wrap_bond(mode):
    # the wrap bond (8, 1) spans all 8 levels: 2^8 keys times 8 levels
    # exceed the 64 samples, while every other bond has at most 16 keys of 3
    g = init_params(build_ansatz("accordion", 8), InitScheme("uniform", seed=5))
    h = build_model(ModelSpec("heisenberg", 8, jx=0.7, jy=1.2, boundary="periodic"))
    topo = _LevelTables(g)
    batch = _draw(VmcBatch(topo, 64), h, _flatten(g, mode), mode, np.random.default_rng(3))
    assert walked_groups(topo, h, batch) == [[0, 7]]
    assert_local_values_match_the_oracle(g, h, batch)


@st.composite
def dags_with_z_terms(draw):
    """A graph, an operator whose Z-only terms lie inside one flip group's
    segment, straddle two segments or sit on the periodic wrap bond, plus a
    constant term; and which of its terms are Z-only."""
    g = draw(leveled_dags(max_qubits=8))
    n = g.num_qubits
    strings = ["I" * n]  # constant
    for _ in range(draw(st.integers(1, 3))):  # flip groups: XX + YY bonds or single X
        i = draw(st.integers(0, n - 1))
        if i < n - 1 and draw(st.booleans()):
            strings += ["I" * i + p * 2 + "I" * (n - i - 2) for p in "XY"]
            strings.append("I" * i + "ZZ" + "I" * (n - i - 2))  # inside the bond's segment
        else:
            strings.append("I" * i + "X" + "I" * (n - i - 1))
        strings.append("I" * i + "Z" + "I" * (n - i - 1))
    j, k = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
    strings.append("".join("Z" if q in (j, k) and j != k else "I" for q in range(n)))
    if n >= 2:
        strings.append("Z" + "I" * (n - 2) + "Z")  # the wrap bond
    h = PauliHamiltonian(n, tuple(PauliString(draw(COEFF), ops) for ops in strings))
    return g, h


@SETTINGS
@given(dags_with_z_terms(), st.sampled_from(["raw", "trig"]), st.booleans())
def test_diagonal_terms_folded_into_the_tables_match_the_oracle(case, mode, tabulate):
    # a diagonal term whose Z qubits lie in a tabulated segment is read from
    # that group's table; the rest are evaluated per sample
    g, h = case
    topo = _LevelTables(g)
    with pytest.MonkeyPatch.context() as mp:
        if tabulate:
            mp.setattr(vmc, "_tabulates", lambda keys, length, count: True)
        batch = _draw(VmcBatch(topo, 48), h, _flatten(g, mode), mode, np.random.default_rng(3))
    segments = topo.compiled(h, vmc._Segments, batch.batch_size)
    spans = [segment[:2] for segment in segments.groups if segment is not None]
    if tabulate:  # every flip group has a table
        assert len(spans) == len(h._bit_groups) - 1
    (diagonal,) = [terms for flip, terms in h._bit_groups if flip.size == 0]
    left = [(w, zy.tolist()) for w, zy in diagonal
            if not any(all(first <= q < end for q in zy.tolist()) for first, end in spans)]
    assert [(w, zy.tolist()) for w, zy in segments.leftover] == left
    assert len(left) < len(diagonal) or not spans  # the constant term is folded
    assert_local_values_match_the_oracle(g, h, batch)


def assert_flipped_paths_rejoin(g, h, batch):
    """Each flip group's walk ends above `rejoin[flip[-1] + 1]`: at that level
    (when it exists) every sample's flipped path is on the sample's own node."""
    topo = _LevelTables(g)
    n = g.num_qubits
    assert topo.rejoin[n] == n
    row_of = {node_id: k for k, node_id in enumerate(g.sorted_ids())}
    for flip, _ in h._bit_groups:
        if flip.size == 0 or topo.rejoin[flip[-1] + 1] == n:
            continue
        level = topo.rejoin[flip[-1] + 1]
        for bits, rows in zip(batch.samples, batch.rows):
            current = g.root_child
            for l in range(level):
                node = g.nodes[current]
                current = node.child1 if bits[l] ^ (l in flip) else node.child0
            assert row_of[current] == rows[level]


@SETTINGS
@given(
    st.sampled_from(ANSATZ_KINDS),
    st.integers(2, 8),
    st.sampled_from([ModelSpec("heisenberg", 2), ModelSpec("heisenberg", 2, boundary="periodic"),
                     ModelSpec("tfim", 2, g=0.7), ModelSpec("tfim", 2, g=0.7, boundary="periodic")]),
    st.integers(0, 2**16),
)
def test_flipped_paths_meet_at_the_rejoin_level_on_the_builders(kind, n, spec, seed):
    g = init_params(build_ansatz(kind, n), InitScheme("uniform", seed=seed))
    h = build_model(dataclasses.replace(spec, n=n))
    assert_flipped_paths_rejoin(g, h, sample_batch(g, h, 24, seed=5))


@SETTINGS
@given(dags_with_hamiltonians(max_qubits=8))
def test_flipped_paths_meet_at_the_rejoin_level(case):
    g, h = case
    assert_flipped_paths_rejoin(g, h, sample_batch(g, h, 16, seed=3))


@pytest.mark.parametrize("mode", ["raw", "trig"])
def test_batch_gradient_skips_untaken_edges_at_the_box(mode):
    # The root at r = 1 has a right edge of amplitude exactly 0 and its
    # left child at r = 0 a left edge of cos(pi/2) ~ 6e-17; no sample takes
    # either, but their magnitude log-derivatives are infinite or huge.  And
    # every sample passes the root on one edge, where each jackknife
    # replicate of the root's entries is the same.
    g = init_params(build_ansatz("accordion", 4), InitScheme("uniform", seed=7))
    root = g.nodes[g.root_child]
    nodes = dict(g.nodes)
    for nid, r in ((root.id, 1.0), (root.child0, 0.0)):
        params = dataclasses.replace(nodes[nid].params, r=r)
        nodes[nid] = dataclasses.replace(nodes[nid], params=params)
    g = dataclasses.replace(g, nodes=nodes)
    h = build_model(ModelSpec("heisenberg", 4))
    batch = sample_batch(g, h, 64, seed=2, mode=mode)
    assert np.all(batch.samples[:, :2] == (0, 1))
    assert np.all(np.isfinite(vmc_gradient(batch).entries))
    assert np.all(np.isfinite(vmc_gradient_stderr(batch)))
    assert_statistics_match_dense_reference(g, batch)
    # every edge's magnitude times its summed centered value: inf * 0 at the root
    edge, slope = batch.edges
    centered = np.real(batch.local_values - batch.local_values.mean())
    s_re = np.bincount((2 * batch.rows + batch.samples).ravel(), np.repeat(centered, 4),
                       minlength=2 * len(g.nodes))
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = (slope / edge).real.ravel()
        assert np.isnan(mag * s_re).any()


@SETTINGS
@given(dags_with_hamiltonians(max_qubits=8), st.integers(1, 40), st.integers(0, 2**16))
def test_merge_level_scatter_matches_a_full_scatter(case, count, seed):
    # random weights, so that no sum is special; levels with mixed in-degree
    # are scattered, the others filled from the level below
    g, h = case
    n = g.num_qubits
    batch = sample_batch(g, h, count, seed=seed)
    c = np.random.default_rng(seed).normal(size=(count, 2)) @ np.array([1.0, 1j])
    counts, sums, _ = vmc._taken_edges(batch, c)
    edge, size = batch.edge.ravel(), 2 * len(g.nodes)
    full = [np.bincount(edge, minlength=size)] + [
        np.bincount(edge, np.tile(part, n), size) for part in (c.real, c.imag)]
    # an edge belongs to one level, so a scattered level's edges add their
    # samples in sample order, as the full scatter does: equal bit for bit;
    # a filled edge sums its child's edges, which re-associates the sum
    scattered_edge = np.repeat(np.isin(batch.topo.level, batch.topo.merge_levels), 2)
    for got, want in zip((counts, sums.real, sums.imag), full):
        assert np.array_equal(got[scattered_edge], want[scattered_edge])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # a level is filled only when every node one level down has in-degree 1
    topo = _LevelTables(g)
    in_degree = np.bincount(topo.child[topo.child >= 0], minlength=len(g.nodes))
    scattered = {n - 1} | {int(level) - 1 for level in topo.level[in_degree > 1]}
    assert batch.topo.merge_levels.tolist() == sorted(scattered)


@pytest.mark.parametrize("kind,levels", [("accordion", list(range(1, 16, 2))),
                                         ("universal", [11]), ("product", list(range(12)))])
def test_merge_levels_of_the_builders(kind, levels):
    g = init_params(build_ansatz(kind, len(levels) if kind == "product" else 2 * len(levels)
                                 if kind == "accordion" else 12), InitScheme("uniform", seed=1))
    assert _LevelTables(g).merge_levels.tolist() == levels


@SETTINGS
@given(leveled_dags(max_qubits=8), st.integers(1, 64), st.integers(0, 2**16))
def test_sampler_rows_are_the_paths_of_its_bits(g, count, seed):
    topo = _LevelTables(g)
    batch = VmcBatch(topo, count)
    batch.edges = _chart(_flatten(g, "raw"), "raw")
    _sample(batch, np.random.default_rng(seed))
    bits, rows = batch.samples, batch.rows
    assert rows.shape == bits.shape == (count, g.num_qubits) and rows.dtype == np.int64
    assert np.array_equal(batch.edge, 2 * rows.T + bits.T)
    row_of = {node_id: k for k, node_id in enumerate(g.sorted_ids())}
    for sample_bits, sample_rows in zip(bits, rows):
        current = g.root_child
        for level, bit in enumerate(sample_bits):
            assert sample_rows[level] == row_of[current]
            node = g.nodes[current]
            current = node.child1 if bit else node.child0
        assert current == TERMINAL
