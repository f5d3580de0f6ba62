"""Monte Carlo engine: exact sampling, local estimators, stochastic gradients."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from vdd.ansatz import InitScheme, build_ansatz, encode_state, init_params
from vdd.exact import exact_energy, exact_gradient, to_state_vector
from vdd.hamiltonian import ModelSpec, PauliHamiltonian, PauliString, build_model
from vdd.vmc import (
    VmcBatch,
    batch_to_csv,
    sample,
    sample_batch,
    vmc_gradient,
    vmc_gradient_stderr,
)
from graphs import layered_graph, random_graph, set_node
from vmc_reference import dense_statistics, local_estimator, log_derivatives


def bits_to_index(row) -> int:
    return int("".join(str(int(b)) for b in row), 2)


# ---------------------------------------------------------------------------
# sampling


def test_basis_state_sampling_is_deterministic():
    g = init_params(build_ansatz("product", 3), InitScheme("basis", bits=(1, 0, 1)))
    rows = sample(g, 50, seed=0)
    assert rows.shape == (50, 3)
    assert np.all(rows == np.array([1, 0, 1]))


def test_left_locked_first_qubit():
    g = set_node(random_graph("product", 3, 1), 1, 1.0, 0.2, 0.4)
    rows = sample(g, 200, seed=3)
    assert np.all(rows[:, 0] == 0)


def test_sampling_is_seeded():
    g = random_graph("accordion", 5, 4)
    a = sample(g, 64, seed=11)
    b = sample(g, 64, seed=11)
    c = sample(g, 64, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_is_pinned_for_a_seed():
    # the level-major draw order: a change to it changes every seeded run
    g = random_graph("accordion", 6, 0)
    expected = np.array(
        [
            [0, 1, 0, 0, 0, 1],
            [1, 1, 0, 0, 1, 0],
            [1, 1, 0, 0, 1, 0],
            [0, 1, 0, 1, 1, 1],
            [0, 1, 1, 1, 1, 1],
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, 0],
            [0, 1, 0, 0, 1, 0],
        ],
        dtype=np.uint8,
    )
    got = sample(g, 8, seed=11)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def test_balanced_graph_uniform_chi_square():
    g = build_ansatz("accordion", 4)  # balanced by construction
    rows = sample(g, 10**5, seed=7)
    counts = np.bincount([bits_to_index(r) for r in rows], minlength=16)
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_sampler_matches_born_distribution():
    g = random_graph("accordion", 4, 9)
    probs = np.abs(to_state_vector(g).amps) ** 2
    rows = sample(g, 10**5, seed=5)
    counts = np.bincount([bits_to_index(r) for r in rows], minlength=16).astype(float)
    keep = probs * 10**5 >= 5  # pool ultra-light bins out of the test
    _, p = stats.chisquare(counts[keep], probs[keep] / probs[keep].sum() * counts[keep].sum())
    assert p > 0.001


# ---------------------------------------------------------------------------
# local estimator


def test_local_estimator_single_qubit_ratio():
    g = set_node(build_ansatz("product", 1), 1, 0.6, 0.0, 0.0)
    hx = PauliHamiltonian(num_qubits=1, terms=(PauliString(1.0, "X"),))
    assert local_estimator(g, hx, (0,)) == pytest.approx(0.8 / 0.6, abs=1e-14)
    assert local_estimator(g, hx, (1,)) == pytest.approx(0.6 / 0.8, abs=1e-14)


def test_local_estimator_diagonal_eigenvalues():
    g = build_ansatz("accordion", 2)
    h = build_model(ModelSpec("z1z2", 2))
    assert local_estimator(g, h, (0, 1)) == pytest.approx(-1.0, abs=1e-14)
    assert local_estimator(g, h, (1, 1)) == pytest.approx(1.0, abs=1e-14)


def test_weighted_local_estimator_recovers_exact_energy():
    for spec, seed in (
        (ModelSpec("tfim", 5, g=1.3), 0),
        (ModelSpec("heisenberg", 4, jx=0.9, jy=1.2, jz=0.4), 1),
        (ModelSpec("z1z2", 6), 2),
    ):
        g = random_graph("accordion", spec.n, seed)
        h = build_model(spec)
        amps = to_state_vector(g).amps
        total = 0.0
        for idx in range(2**spec.n):
            p = abs(amps[idx]) ** 2
            if p < 1e-14:
                continue
            bits = tuple((idx >> (spec.n - 1 - i)) & 1 for i in range(spec.n))
            total += p * local_estimator(g, h, bits).real
        assert total == pytest.approx(exact_energy(g, h), abs=1e-10)


def test_local_estimator_rejects_zero_amplitude():
    g = init_params(build_ansatz("product", 2), InitScheme("basis", bits=(0, 0)))
    h = build_model(ModelSpec("tfim", 2, g=1.0))
    with pytest.raises(ValueError):
        local_estimator(g, h, (1, 1))


def test_batch_local_values_reject_zero_amplitude():
    from vdd.exact import _LevelTables, _chart, _flatten
    from vdd.vmc import _batch_local_values

    g = init_params(build_ansatz("product", 2), InitScheme("basis", bits=(0, 0)))
    h = build_model(ModelSpec("tfim", 2, g=1.0))
    topo = _LevelTables(g)
    bits = np.array([[0, 0], [1, 1]], dtype=np.uint8)
    rows = np.array([[topo.root, topo.child[topo.root, 0]]] * 2)
    edges = _chart(_flatten(g, "raw"), "raw")

    def drawn(count):  # a batch holding the first `count` hand-made samples
        batch = VmcBatch(topo, count)
        batch.edges, batch.bits[:] = edges, bits[:count].T
        batch.edge[:] = 2 * rows[:count].T + batch.bits
        return batch

    assert _batch_local_values(drawn(1), h)[0] == pytest.approx(
        local_estimator(g, h, (0, 0))
    )
    with pytest.raises(ValueError, match="psi"):
        _batch_local_values(drawn(2), h)


# ---------------------------------------------------------------------------
# log-derivatives


def test_log_derivatives_single_qubit():
    g = set_node(build_ansatz("product", 1), 1, 0.6, 0.0, 0.0)
    left = log_derivatives(g, (0,))
    np.testing.assert_allclose(left, [1 / 0.6, 1j, 0.0], atol=1e-14)
    right = log_derivatives(g, (1,))
    np.testing.assert_allclose(right, [-0.6 / 0.64, 0.0, 1j], atol=1e-14)


def test_log_derivatives_off_path_zero():
    g = random_graph("universal", 3, 3)
    o = log_derivatives(g, (0, 0, 0))
    on = {1, 2, 4}  # the all-zeros path down the complete binary layout
    for slot, nid in enumerate(sorted(g.nodes)):
        block = o[3 * slot : 3 * slot + 3]
        if nid in on:
            assert np.any(block != 0)
        else:
            assert np.all(block == 0)


def test_log_derivatives_trig_chain_rule():
    g = set_node(build_ansatz("product", 1), 1, 0.6, 0.0, 0.0)
    raw = log_derivatives(g, (0,))
    trig = log_derivatives(g, (0,), mode="trig")
    # d log / du = d log / dr * dr/du = (1/r) * (-sin u) = -0.8/0.6... signed
    assert trig[0] == pytest.approx(raw[0].real * -math.sqrt(1 - 0.36), abs=1e-14)
    trig_right = log_derivatives(g, (1,), mode="trig")
    assert trig_right[0] == pytest.approx(0.6 / math.sqrt(1 - 0.36), abs=1e-14)


def test_log_derivatives_singular_edge_raises():
    g = set_node(build_ansatz("product", 2), 1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_derivatives(g, (0, 0))  # left edge with r = 0 has zero probability
    g = set_node(build_ansatz("product", 2), 1, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_derivatives(g, (1, 0))


# ---------------------------------------------------------------------------
# batch estimators


def test_vmc_energy_on_deterministic_state():
    g = init_params(build_ansatz("accordion", 2), InitScheme("basis", bits=(0, 1)))
    batch = sample_batch(g, build_model(ModelSpec("z1z2", 2)), 128, seed=0)
    mean, stderr = batch.energy_mean, batch.energy_stderr
    assert mean == -1.0
    assert stderr == 0.0


def test_vmc_energy_balanced_tfim():
    g = build_ansatz("accordion", 2)
    h = build_model(ModelSpec("tfim", 2, g=1.0))
    batch = sample_batch(g, h, 10**5, seed=1)
    mean, stderr = batch.energy_mean, batch.energy_stderr
    exact = exact_energy(g, h)
    assert exact == pytest.approx(2.0, abs=1e-12)
    assert abs(mean - exact) < 5 * stderr
    assert stderr < 0.02


def test_singlet_encoding_has_zero_variance():
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = -1 / math.sqrt(2)
    g = encode_state(v)
    h = build_model(ModelSpec("heisenberg", 2))
    batch = sample_batch(g, h, 2000, seed=2)
    mean, stderr = batch.energy_mean, batch.energy_stderr
    assert mean == pytest.approx(-3.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    # and the stochastic gradient of an eigenstate vanishes to roundoff
    gv = vmc_gradient(batch)
    assert np.max(np.abs(gv.entries)) < 1e-12


def test_diagonal_basis_eigenstate_gradient_is_exact_zero():
    g = init_params(build_ansatz("accordion", 4), InitScheme("basis", bits=(0, 1, 1, 0)))
    batch = sample_batch(g, build_model(ModelSpec("z1z2", 4)), 500, seed=3)
    assert np.all(vmc_gradient(batch).entries == 0.0)


def test_batch_matches_per_sample_calls():
    g = random_graph("accordion", 4, 6)
    h = build_model(ModelSpec("heisenberg", 4))
    batch = sample_batch(g, h, 50, seed=9)
    for k in (0, 7, 49):
        bits = tuple(int(b) for b in batch.samples[k])
        assert batch.local_values[k] == pytest.approx(local_estimator(g, h, bits), abs=1e-12)
    gradient, stderr = dense_statistics(g, batch)
    np.testing.assert_allclose(vmc_gradient(batch).entries, gradient, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(vmc_gradient_stderr(batch), stderr, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [64, 100])
def test_local_values_past_63_qubits(n):
    # bit strings this long do not fit a 64-bit index
    g = random_graph("accordion", n, 2)
    h = build_model(ModelSpec("heisenberg", n, boundary="periodic"))
    batch = sample_batch(g, h, 6, seed=1)
    for k in range(batch.batch_size):
        bits = tuple(int(b) for b in batch.samples[k])
        assert batch.local_values[k] == pytest.approx(
            local_estimator(g, h, bits), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("n", [64, 100])
def test_sampled_energy_past_63_qubits_matches_the_contracted_energy(n):
    # no state vector exists at this n; exact_energy contracts over the levels
    g = random_graph("accordion", n, 3)
    h = build_model(ModelSpec("heisenberg", n, boundary="periodic"))
    batch = sample_batch(g, h, 4000, seed=6)
    mean, stderr = batch.energy_mean, batch.energy_stderr
    assert stderr > 0
    assert abs(mean - exact_energy(g, h)) < 5 * stderr


def test_full_basis_weighted_gradient_matches_exact():
    # feed the estimator the entire basis with exact Born weights: the
    # weighted stochastic formula must reproduce the analytic gradient
    g = set_node(build_ansatz("product", 1), 1, 0.6, 0.0, 0.0)
    hx = PauliHamiltonian(num_qubits=1, terms=(PauliString(1.0, "X"),))
    amps = to_state_vector(g).amps
    p = np.abs(amps) ** 2
    local = np.array([local_estimator(g, hx, (b,)) for b in (0, 1)])
    o = np.stack([log_derivatives(g, (b,)) for b in (0, 1)])
    mean_a = np.sum(p * local)
    grad = 2 * np.real(np.sum(p[:, None] * np.conj(o) * (local - mean_a)[:, None], axis=0))
    assert grad[0] == pytest.approx(0.7, abs=1e-12)
    assert exact_gradient(g, hx, mode="raw").entry("r1") == pytest.approx(0.7, abs=1e-12)


def test_vmc_gradient_tracks_exact_gradient():
    g = random_graph("accordion", 6, 13)
    h = build_model(ModelSpec("tfim", 6, g=1.0))
    batch = sample_batch(g, h, 20000, seed=4)
    est = vmc_gradient(batch).entries
    se = vmc_gradient_stderr(batch)
    ref = exact_gradient(g, h, mode="raw").entries
    z = np.abs(est - ref) / np.maximum(se, 1e-12)
    assert np.max(z) < 5.0


def test_vmc_statistics_match_dense_reference_at_a_large_batch():
    # the batch of test_vmc_gradient_tracks_exact_gradient
    g = random_graph("accordion", 6, 13)
    h = build_model(ModelSpec("tfim", 6, g=1.0))
    batch = sample_batch(g, h, 20000, seed=4)
    gradient, stderr = dense_statistics(g, batch)
    np.testing.assert_allclose(vmc_gradient(batch).entries, gradient, rtol=1e-10)
    np.testing.assert_allclose(vmc_gradient_stderr(batch), stderr, rtol=1e-10)


def test_vmc_gradient_needs_two_samples():
    g = random_graph("accordion", 3, 0)
    h = build_model(ModelSpec("tfim", 3, g=1.0))
    batch = sample_batch(g, h, 1, seed=0)
    for estimate in (vmc_gradient, vmc_gradient_stderr):
        with pytest.raises(ValueError, match="needs at least 2 samples, got 1"):
            estimate(batch)


def test_jackknife_stderr_is_calibrated():
    # across independent batches, the stderr should predict the spread
    g = random_graph("accordion", 4, 21)
    h = build_model(ModelSpec("tfim", 4, g=1.0))
    ref = exact_gradient(g, h, mode="raw").entries
    worst = 0.0
    for seed in range(20):
        batch = sample_batch(g, h, 4000, seed=seed)
        z = (vmc_gradient(batch).entries - ref) / np.maximum(
            vmc_gradient_stderr(batch), 1e-12
        )
        worst = max(worst, float(np.max(np.abs(z))))
    assert worst < 6.0


def test_batches_own_their_arrays():
    # a second batch must not be written into the first one's buffers
    g = random_graph("accordion", 6, 1)
    h = build_model(ModelSpec("heisenberg", 6))
    first = sample_batch(g, h, 64, seed=1)
    kept = (first.samples.copy(), first.rows.copy(), first.local_values.copy())
    second = sample_batch(g, h, 64, seed=2)
    assert not np.array_equal(second.samples, kept[0])
    for before, after in zip(kept, (first.samples, first.rows, first.local_values)):
        assert np.array_equal(before, after)


def test_draws_into_one_workspace_equal_fresh_draws():
    # training draws every epoch into one batch; each epoch must read
    # exactly what a freshly allocated one would
    from vdd.exact import _LevelTables, _flatten
    from vdd.vmc import _batch_gradient, _draw

    g = random_graph("accordion", 7, 4)
    h = build_model(ModelSpec("heisenberg", 7, jx=0.7, jy=1.2, boundary="periodic"))
    topo = _LevelTables(g)
    theta = _flatten(g, "trig")
    batch = VmcBatch(topo, 48)
    reused, fresh = np.random.default_rng(7), np.random.default_rng(7)
    for epoch in range(4):
        at = theta + 0.05 * epoch
        a = _draw(batch, h, at, "trig", reused)
        grad_a = _batch_gradient(a)
        b = _draw(VmcBatch(topo, 48), h, at, "trig", fresh)
        for name in ("samples", "rows", "edge", "local_values"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.energy_mean, a.energy_stderr) == (b.energy_mean, b.energy_stderr)
        assert np.array_equal(grad_a, _batch_gradient(b))


@pytest.mark.parametrize("kind,n", [("product", 8), ("accordion", 16)])
def test_batch_block_holds_no_per_level_copy(kind, n):
    # uniform, edge and bits are (n, B); the rest is three complex and three
    # 8-byte scratch arrays per sample: n B 17 + 72 B bytes, so a per-level
    # copy of the edges (or of anything else) cannot join the block unnoticed
    from vdd.exact import _LevelTables, _flatten
    from vdd.vmc import _draw

    count = 256
    g = random_graph(kind, n, 3)
    h = build_model(ModelSpec("heisenberg", n))
    batch = _draw(VmcBatch(_LevelTables(g), count), h, _flatten(g, "trig"), "trig",
                  np.random.default_rng(0))
    block = batch.edge.base
    assert block.nbytes == n * count * 17 + 72 * count
    arrays = [a for a in vars(batch).values() if isinstance(a, np.ndarray) and a.base is block]
    assert sum(a.nbytes for a in arrays) == block.nbytes


def test_segment_tables_are_built_once_per_run_and_operator(monkeypatch):
    from vdd import vmc
    from vdd.exact import _LevelTables, _flatten
    from vdd.optimize import TrainConfig, train

    built = []
    original = vmc._Segments

    def counted(topo, h, count):
        built.append(count)
        return original(topo, h, count)

    monkeypatch.setattr(vmc, "_Segments", counted)
    train(TrainConfig(model=ModelSpec("heisenberg", 6), epochs=20, seed=0, gradient_source="vmc",
                      batch_size=64, loss="energy"))
    assert built == [64]  # once per run, not per epoch
    # another operator asked of the same topology gets its own tables
    g = random_graph("accordion", 6, 4)
    topo = _LevelTables(g)
    batch = vmc.VmcBatch(topo, 32)
    heisenberg = build_model(ModelSpec("heisenberg", 6, jx=0.7, boundary="periodic"))
    tfim = build_model(ModelSpec("tfim", 6, g=0.7))
    for h in (heisenberg, heisenberg, tfim, heisenberg):
        vmc._draw(batch, h, _flatten(g, "raw"), "raw", np.random.default_rng(1))
        for k in range(batch.batch_size):
            bits = tuple(int(b) for b in batch.samples[k])
            assert batch.local_values[k] == pytest.approx(
                local_estimator(g, h, bits), rel=1e-12, abs=1e-12
            )
    assert built == [64, 32, 32, 32]


def test_both_engines_share_one_cache_per_operator(monkeypatch):
    # the exact engine's basis and contraction buffers and the VMC tables are
    # kept on the topology, each built once per operator and size
    from vdd import exact, vmc
    from vdd.exact import _LevelTables, _flatten, energy_and_grad

    built = []

    def counted(module, name):
        original = getattr(module, name)

        def build(topo, h, *size):
            built.append((name, *size))
            return original(topo, h, *size)

        monkeypatch.setattr(module, name, build)

    for module, name in ((exact, "_Basis"), (exact, "_Contraction"), (vmc, "_Segments")):
        counted(module, name)
    g = random_graph("accordion", 6, 4)
    topo = _LevelTables(g)
    theta = _flatten(g, "trig")
    batch = vmc.VmcBatch(topo, 32)
    heisenberg = build_model(ModelSpec("heisenberg", 6))
    tfim = build_model(ModelSpec("tfim", 6, g=0.7))
    assert exact._contracts(topo, heisenberg) and exact._contracts(topo, tfim)
    rounds = []
    for h in (heisenberg, heisenberg, tfim):
        energy_and_grad(topo, h, theta, "trig")
        energy_and_grad(topo, h, np.stack([theta] * 3), "trig")
        vmc._draw(batch, h, theta, "trig", np.random.default_rng(0))
        rounds.append(sorted(built))
        built.clear()
    once = [("_Basis",), ("_Contraction", 1), ("_Contraction", 3), ("_Segments", 32)]
    assert rounds == [once, [], once]


@pytest.mark.parametrize("count,offset", [(2, 0.0), (7, -3.5), (4096, -27.9), (4096, 1e4)])
def test_energy_stats_match_mean_and_std(count, offset):
    from vdd.vmc import _energy_stats

    rng = np.random.default_rng(count)
    local = offset + rng.normal(size=count) + 1j * rng.normal(size=count)
    mean, stderr = _energy_stats(local)
    assert mean == pytest.approx(float(np.mean(local.real)), rel=1e-12, abs=0.0)
    expected = float(np.std(local.real, ddof=1) / math.sqrt(count))
    assert stderr == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_batch_invariants_and_csv(tmp_path):
    g = random_graph("accordion", 3, 2)
    h = build_model(ModelSpec("tfim", 3, g=0.5))
    batch = sample_batch(g, h, 10, seed=5)
    assert isinstance(batch, VmcBatch)
    assert len(batch.samples) == len(batch.local_values) == len(batch.rows) == 10
    assert batch.energy_mean == pytest.approx(float(np.mean(batch.local_values.real)))
    expected_se = float(np.std(batch.local_values.real, ddof=1) / math.sqrt(10))
    assert batch.energy_stderr == pytest.approx(expected_se)

    out = tmp_path / "batch.csv"
    batch_to_csv(batch, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_index,bitstring,local_value_re,local_value_im"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "0" and set(first[1]) <= {"0", "1"} and len(first[1]) == 3
    float(first[2]), float(first[3])


# per epoch (energy, energy_stderr, grad_norm) of 5-epoch VMC runs at seed 3
PINNED_TRACES = {
    ("accordion", "heisenberg", "open", 8, 256, "trig"): [
        (-0.14325281995843867, 0.2034812538104535, 6.169846829827241),
        (-0.20397716519339765, 0.22687279185276057, 7.972808899097583),
        (-0.40450448406535255, 0.20861948224019505, 6.39238485655547),
        (-0.7745369560233413, 0.21499423452259583, 6.424311683346717),
        (-1.3638759703579817, 0.21699618423622294, 6.3129464167416245),
    ],
    ("accordion", "heisenberg", "open", 8, 256, "raw"): [
        (-0.14325281995843867, 0.2034812538104535, 8.006547530601173),
        (-0.294034769383265, 0.22040167279840736, 15.346763750908737),
        (-0.6134903467756749, 0.22575892023107413, 23.617047308264972),
        (-1.143683402773143, 0.21080916477737072, 8.626261504656348),
        (-1.884461904590169, 0.20757468358296874, 8.820719104324565),
    ],
    # the wrap bond's segment spans every level, so it is walked
    ("accordion", "heisenberg", "periodic", 8, 64, "trig"): [
        (-0.5075946980824853, 0.417848733181994, 6.5486961915037805),
        (0.21533429353617212, 0.45284724085813133, 7.740230215923168),
        (-0.29329740584852193, 0.5865404297641376, 10.968473817994758),
        (-0.17040534142369723, 0.42934004346830124, 6.7387254504703495),
        (-0.3620366968414585, 0.5302233587088141, 9.16196928845149),
    ],
    ("accordion", "heisenberg", "periodic", 8, 64, "raw"): [
        (-0.5075946980824853, 0.417848733181994, 13.815969999099806),
        (-0.020384998448446573, 0.4433054099978894, 10.074430184646783),
        (-0.5964702626096983, 0.6290462031765365, 18.24313011452951),
        (-0.47330497001551175, 0.45121634484534184, 9.872696097236185),
        (-1.0157221591130279, 0.4358374925714672, 10.393579439946183),
    ],
    ("product", "tfim", "open", 6, 128, "trig"): [
        (-0.07873388547642572, 0.24926882831159286, 5.851850938379386),
        (-0.09768777923873027, 0.2310250475888701, 5.11844509347044),
        (-0.5479937220298101, 0.22422257019296737, 4.828133360453761),
        (-0.6698562737645334, 0.23745722685285803, 5.676037216947332),
        (-0.8155320202412188, 0.23393244412531897, 5.458629651756551),
    ],
    ("product", "tfim", "open", 6, 128, "raw"): [
        (-0.07873388547642572, 0.24926882831159286, 6.565683299007639),
        (-0.13438540432379215, 0.23263741162203902, 7.204882811081433),
        (-0.586514285096761, 0.22373926744947856, 5.65644194528484),
        (-0.6755408349780134, 0.2355776788697315, 8.049174444919217),
        (-0.8880839983983866, 0.23153727509111, 6.160665994012667),
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED_TRACES))
def test_vmc_training_trace_is_pinned_for_a_seed(case):
    # a change to the sampler, the local-value tables or the gradient's
    # scatter that moves any result moves these
    from vdd.optimize import TrainConfig, train

    ansatz, model, boundary, n, count, mode = case
    spec = ModelSpec(model, n, g=1.0 if model == "tfim" else 0.0, boundary=boundary)
    trace = train(TrainConfig(ansatz=ansatz, model=spec, epochs=5, seed=3, gradient_source="vmc",
                              batch_size=count, param_mode=mode, loss="energy"))
    got = [(r.energy, r.energy_stderr, r.grad_norm) for r in trace.records]
    np.testing.assert_allclose(got, PINNED_TRACES[case], rtol=1e-12, atol=0.0)


# per epoch (loss, energy, relative_error, grad_norm) of 5-epoch exact runs at
# seed 3; loss "energy" resolves no E0, so its relative_error is None
PINNED_EXACT_TRACES = {
    ("accordion", "heisenberg", 6, "raw", "energy"): [
        (0.09983554904136294, 0.09983554904136294, None, 8.138736230879429),
        (-0.1297959621037036, -0.1297959621037036, None, 9.461108741624642),
        (-0.39513689078269676, -0.39513689078269676, None, 13.656924121222167),
        (-0.7479452715236706, -0.7479452715236706, None, 34572.86112411493),
        (-0.9377247918132612, -0.9377247918132612, None, 35026.66319577095),
    ],
    ("accordion", "heisenberg", 6, "raw", "energy_gap"): [
        (10.074144084593064, 0.09983554904136294, 1.0100092701850474, 8.138736230879429),
        (9.844512573447998, -0.1297959621037036, 0.9869869714135002, 9.461108741624642),
        (9.579171644769005, -0.39513689078269676, 0.9603845329854898, 13.656924121222167),
        (9.22636326402803, -0.7479452715236706, 0.9250128198002149, 34572.86112411493),
        (9.03658374373844, -0.9377247918132612, 0.9059859850463916, 35026.66319577095),
    ],
    ("accordion", "heisenberg", 6, "trig", "energy"): [
        (0.09983554904136294, 0.09983554904136294, None, 5.386794861653297),
        (-0.05702125049355189, -0.05702125049355189, None, 5.486921009527238),
        (-0.21841785583196982, -0.21841785583196982, None, 5.580971125067557),
        (-0.38388664818372153, -0.38388664818372153, None, 5.668506438835865),
        (-0.5529037109064034, -0.5529037109064034, None, 5.749436903601972),
    ],
    ("accordion", "heisenberg", 6, "trig", "energy_gap"): [
        (10.074144084593064, 0.09983554904136294, 1.0100092701850474, 5.386794861653297),
        (9.91728728505815, -0.05702125049355189, 0.9942831876224493, 5.486921009527238),
        (9.755890679719732, -0.21841785583196982, 0.9781019551326835, 5.580971125067557),
        (9.59042188736798, -0.38388664818372153, 0.9615124550423295, 5.668506438835865),
        (9.421404824645299, -0.5529037109064034, 0.9445672139641889, 5.749436903601972),
    ],
    ("accordion", "tfim", 6, "raw", "energy"): [
        (0.8462753664016203, 0.8462753664016203, None, 7.392654052506414),
        (0.651873150266624, 0.651873150266624, None, 7.981975821307435),
        (0.44488003026200973, 0.44488003026200973, None, 10.152788292690838),
        (0.1780259407611886, 0.1780259407611886, None, 24683.095021610177),
        (0.020481922927922946, 0.020481922927922946, None, 23516.726609014855),
    ],
    ("accordion", "tfim", 6, "raw", "energy_gap"): [
        (8.142505176960372, 0.8462753664016203, 1.1159880360644523, 7.392654052506414),
        (7.948102960825375, 0.651873150266624, 1.0893438347190305, 7.981975821307435),
        (7.74110984082076, 0.44488003026200973, 1.0609739607733024, 10.152788292690838),
        (7.47425575131994, 0.1780259407611886, 1.0243997167555712, 24683.095021610177),
        (7.316711733486674, 0.020481922927922946, 1.0028071926816617, 23516.726609014855),
    ],
    ("accordion", "tfim", 6, "trig", "energy"): [
        (0.8462753664016203, 0.8462753664016203, None, 5.588404466469787),
        (0.708822190846507, 0.708822190846507, None, 5.640678084790639),
        (0.5728754884097794, 0.5728754884097794, None, 5.6896563950137455),
        (0.43862700460057913, 0.43862700460057913, None, 5.735346523378034),
        (0.30617368662548206, 0.30617368662548206, None, 5.777483263350162),
    ],
    ("accordion", "tfim", 6, "trig", "energy_gap"): [
        (8.142505176960372, 0.8462753664016203, 1.1159880360644523, 5.588404466469787),
        (8.005052001405257, 0.708822190846507, 1.0971491042977748, 5.640678084790639),
        (7.86910529896853, 0.5728754884097794, 1.0785166453475385, 5.6896563950137455),
        (7.73485681515933, 0.43862700460057913, 1.0601169392945682, 5.735346523378034),
        (7.602403497184233, 0.30617368662548206, 1.041963273440538, 5.777483263350162),
    ],
}


@pytest.mark.parametrize("case", sorted(PINNED_EXACT_TRACES))
def test_exact_training_trace_is_pinned_for_a_seed(case):
    # the exact-path tests compare `train` with a hand-written loop, which
    # moves with a change both share; a change to the engine, the chart or
    # the update that moves any result moves these
    from vdd.optimize import TrainConfig, train

    ansatz, model, n, mode, loss = case
    spec = ModelSpec(model, n, g=1.0 if model == "tfim" else 0.0)
    trace = train(TrainConfig(ansatz=ansatz, model=spec, epochs=5, seed=3, param_mode=mode,
                              loss=loss))
    got = [(r.loss, r.energy, r.relative_error, r.grad_norm) for r in trace.records]
    # a None is a nan here, and a nan matches only a nan
    np.testing.assert_allclose(np.array(got, dtype=float),
                               np.array(PINNED_EXACT_TRACES[case], dtype=float),
                               rtol=1e-12, atol=0.0)


def segment_keys(g, h, count):
    from vdd import vmc
    from vdd.exact import _LevelTables

    topo = _LevelTables(g)
    return topo, [s for s in topo.compiled(h, vmc._Segments, count).groups if s is not None]


def relabeled(g, relabel):
    """g with node ids renamed by `relabel` (ids it leaves out are kept)."""
    def moved(node_id):
        return relabel.get(node_id, node_id)

    nodes = {moved(i): dataclasses.replace(node, id=moved(i), child0=moved(node.child0),
                                           child1=moved(node.child1))
             for i, node in g.nodes.items()}
    return dataclasses.replace(g, nodes=nodes, root_child=moved(g.root_child))


@pytest.mark.parametrize("kind", ["accordion", "universal", "product"])
@pytest.mark.parametrize("spec", [ModelSpec("heisenberg", 2), ModelSpec("tfim", 2, g=1.0),
                                  ModelSpec("heisenberg", 2, boundary="periodic")])
@pytest.mark.parametrize("n", [6, 8, 12])
def test_builders_key_their_tables_by_recorded_edges(kind, spec, n):
    # on every builder a tabulated group's key is a few of the sample's edges:
    # at the merge levels inside its segment and at its last level
    g = random_graph(kind, n, 0)
    h = build_model(dataclasses.replace(spec, n=n))
    topo, groups = segment_keys(g, h, 4096)
    # the universal layout's bonds at n = 12 have 2^12 keys of 2 or more levels
    assert groups or (kind, spec.model, n) == ("universal", "heisenberg", 12)
    merge = topo.merge_levels.tolist()
    for first, end, start, stop, _, terms in groups:
        assert stop - start == topo.counts[first] << (end - first)  # W 2^L columns
        levels = [level for level, _ in terms]
        assert levels == [m for m in merge if first <= m < end - 1] + [end - 1]
        assert terms[-1][1] == 1
        if kind == "universal":
            assert terms == ((n - 1, 1),)
        elif kind == "product":
            assert terms == tuple((level, 1 << (end - 1 - level)) for level in range(first, end))
    if kind == "accordion" and spec.model == "heisenberg" and spec.boundary == "open":
        # a bond from a one-node level keys by one edge, from a two-node level by two
        assert [len(terms) for *_, terms in groups] == [1, 2] * (n // 2 - 1) + [1]


def test_tables_fall_back_to_slot_and_bits_keys_where_edges_are_not_one_to_one():
    # swapping the ids of level 2's second node and level 3's node leaves
    # level 2's rows apart, so its edges span 6 keys for its 4 edges
    g = relabeled(random_graph("accordion", 6, 2), {3: 4, 4: 3})
    h = build_model(ModelSpec("heisenberg", 6))
    _, groups = segment_keys(g, h, 256)
    assert [terms for *_, terms in groups].count(None) == 2  # the bonds keyed by two levels
    cases = [(g, h)]
    # window automata (a node's children are 2k and 2k + 1 modulo the width):
    # their edge spans do not multiply to the key count, so every tabulated
    # group keys by slot and bits
    for n, width in ((6, 2), (8, 4)):
        g = init_params(layered_graph(n, width), InitScheme("uniform", seed=n))
        h = build_model(ModelSpec("heisenberg", n))
        _, groups = segment_keys(g, h, 256)
        assert None in [terms for *_, terms in groups]
        cases.append((g, h))
    for g, h in cases:
        batch = sample_batch(g, h, 256, seed=4, mode="trig")
        for k in range(batch.batch_size):
            bits = tuple(int(b) for b in batch.samples[k])
            assert batch.local_values[k] == pytest.approx(local_estimator(g, h, bits),
                                                          rel=1e-12, abs=1e-12)
