"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line (visible with ``pytest -s`` or on failure). The suite is
deterministic: every random draw is seeded.
"""

import dataclasses
import math
import time

import numpy as np
from scipy import stats

from vdd.ansatz import InitScheme, build_ansatz, init_params
from vdd.exact import exact_energy, exact_gradient, finite_difference, to_state_vector
from vdd.graph import ParamTriple, amplitude, deserialize, serialize
from vdd.hamiltonian import ModelSpec, build_model, dense_matrix, ground_energy
from vdd.optimize import AdamConfig, TrainConfig, train
from vdd.experiments import VarianceScanConfig, g_sweep, variance_scan
from vdd.vmc import sample, sample_batch, vmc_gradient, vmc_gradient_stderr


def _report(num, budget_s, started, ok, detail):
    elapsed = time.time() - started
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert ok, line
    assert elapsed < budget_s, f"criterion {num}: exceeded {budget_s}s budget ({elapsed:.1f}s)"


def _redraw(g, rng, lo=0.0, hi=1.0):
    nodes = {
        nid: dataclasses.replace(
            node,
            params=ParamTriple(
                float(rng.uniform(lo, hi)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            ),
        )
        for nid, node in g.nodes.items()
    }
    return dataclasses.replace(g, nodes=nodes)


def test_criterion_1_three_qubit_amplitude_formula():
    # psi(001) on the 3-qubit accordion is r1 r2 sqrt(1-r4^2) e^{i(w1+w2+phi4)}
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        g = _redraw(build_ansatz("accordion", 3), rng)
        p1, p2, p4 = (g.nodes[i].params for i in (1, 2, 4))
        expected = (
            p1.r * p2.r * math.sqrt(1.0 - p4.r**2)
            * np.exp(1j * (p1.omega + p2.omega + p4.phi))
        )
        worst = max(worst, abs(amplitude(g, (0, 0, 1)) - expected))
    _report(1, 1.0, t0, worst <= 1e-14, f"max amplitude deviation {worst:.2e} over 10 draws")


def test_criterion_2_normalization():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        kind = ("product", "accordion", "universal")[rng.integers(3)]
        n = int(rng.integers(2, 15))
        g = _redraw(build_ansatz(kind, n), rng)
        norm = float(np.sum(np.abs(to_state_vector(g).amps) ** 2))
        worst = max(worst, abs(norm - 1.0))
    _report(2, 30.0, t0, worst <= 1e-12, f"max |norm - 1| = {worst:.2e} over 50 graphs, n <= 14")


def test_criterion_3_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(3)
    models = ("tfim", "heisenberg", "z1z2")
    worst = 0.0
    for i in range(50):
        kind = ("product", "accordion", "universal")[rng.integers(3)]
        n = int(rng.integers(2, 9))
        g = _redraw(build_ansatz(kind, n), rng, lo=0.1, hi=0.9)
        name = models[i % 3]
        spec = (
            ModelSpec("tfim", n, g=float(rng.uniform(0.0, 2.0)))
            if name == "tfim"
            else ModelSpec(name, n)
        )
        h = build_model(spec)
        mode = ("raw", "trig")[i % 2]
        a = exact_gradient(g, h, mode=mode).entries
        fd = finite_difference(g, h, step=1e-6, mode=mode).entries
        worst = max(worst, np.linalg.norm(a - fd) / max(np.linalg.norm(a), 1e-300))
    _report(3, 120.0, t0, worst <= 1e-6, f"max relative error {worst:.2e} over 50 cases")


def test_criterion_4_ground_energy_oracles():
    t0 = time.time()
    devs = []
    for n in range(2, 13):
        e0, _ = ground_energy(build_model(ModelSpec("tfim", n, g=0.0)))
        devs.append(abs(e0 - (-(n - 1))))
    e_heis, _ = ground_energy(build_model(ModelSpec("heisenberg", 2)))
    devs.append(abs(e_heis - (-3.0)))
    h = build_model(ModelSpec("tfim", 2, g=1.0))
    e_tfim, _ = ground_energy(h)
    devs.append(abs(e_tfim - (-math.sqrt(5.0))))
    devs.append(abs(e_tfim - np.linalg.eigvalsh(dense_matrix(h))[0]))
    worst = max(devs)
    _report(4, 60.0, t0, worst <= 1e-9, f"max oracle deviation {worst:.2e}")


def test_criterion_5_gradient_variance_scan():
    t0 = time.time()
    ns = tuple(range(2, 13))
    slopes = {}
    for model, g in (("tfim", 0.0), ("tfim", 1.0), ("tfim", 10.0), ("heisenberg", 1.0)):
        cfg = VarianceScanConfig(
            model=model, n_values=ns, tracked_params=("r1", "r2", "r-1"),
            num_seeds=100, base_seed=7, g=g,
        )
        for fit in variance_scan(cfg).fits:
            slopes[(model, g, fit.param)] = fit.slope
    min_slope = min(slopes.values())

    diag = VarianceScanConfig(
        model="z1z2", n_values=ns, tracked_params=("omega3", "phi-1"),
        num_seeds=100, base_seed=7,
    )
    max_var = max(row.variance for row in variance_scan(diag).rows)

    ok = min_slope > -0.5 and max_var <= 1e-28
    _report(
        5, 600.0, t0, ok,
        f"min log2-variance slope {min_slope:.3f} (> -0.5); "
        f"diagonal-model phase variance {max_var:.2e} (<= 1e-28)",
    )


def test_criterion_6_training_targets():
    # one uniform draw (seed 286) trained with Adam lr=0.01 on each target;
    # epoch counts are per-panel convergence points, all well under 10000
    t0 = time.time()
    n, seed = 10, 286
    results = []

    for name, spec, epochs in (
        ("tfim g=0", ModelSpec("tfim", n, g=0.0), 3000),
        ("z1z2", ModelSpec("z1z2", n), 4000),
    ):
        h = build_model(spec)
        e0, _ = ground_energy(h)
        trace = train(TrainConfig(model=spec, optimizer=AdamConfig(lr=0.01),
                                  epochs=epochs, seed=seed))
        rel = abs((exact_energy(trace.graph, h) - e0) / e0)
        results.append((f"{name} rel {rel:.1e}", rel < 1e-4))

    spec = ModelSpec("heisenberg", n)
    h = build_model(spec)
    e0, _ = ground_energy(h)
    start = init_params(build_ansatz("accordion", n), InitScheme("uniform", seed=seed))
    gap0 = exact_energy(start, h) - e0
    trace = train(TrainConfig(model=spec, optimizer=AdamConfig(lr=0.01),
                              epochs=2000, seed=seed))
    gap1 = exact_energy(trace.graph, h) - e0
    results.append((f"heisenberg gap {gap0:.2f}->{gap1:.2f} ({gap0 / gap1:.1f}x)",
                    gap0 / gap1 >= 10.0))

    spec = ModelSpec("tfim", n, g=10.0)
    trace = train(TrainConfig(model=spec, optimizer=AdamConfig(lr=0.01),
                              epochs=2000, seed=seed))
    dev = max(abs(node.params.r - 1.0 / math.sqrt(2.0)) for node in trace.graph.nodes.values())
    results.append((f"tfim g=10 max|r - 1/sqrt2| = {dev:.3f}", dev <= 0.05))

    _report(6, 1200.0, t0, all(ok for _, ok in results),
            "; ".join(msg for msg, _ in results))


def test_criterion_7_error_vs_field_strength():
    # the trained energy offset above E0 halves per doubling of g (a 1/g law);
    # the relative error, whose denominator |E0| itself grows ~linearly in g,
    # falls ~4x per doubling and is reported alongside
    t0 = time.time()
    res = g_sweep((10.0, 20.0, 40.0), n=8, epochs=10000, seed=0)
    rels = {row.g: row.relative_error for row in res.rows}
    gaps = {row.g: row.relative_error * abs(row.e0) for row in res.rows}
    gap_ratios = (gaps[10.0] / gaps[20.0], gaps[20.0] / gaps[40.0])
    rel_ratios = (rels[10.0] / rels[20.0], rels[20.0] / rels[40.0])
    ok = all(1.4 <= r <= 2.8 for r in gap_ratios)
    _report(
        7, 900.0, t0, ok,
        f"energy-offset ratios {gap_ratios[0]:.2f}, {gap_ratios[1]:.2f} in [1.4, 2.8]; "
        f"relative-error ratios {rel_ratios[0]:.2f}, {rel_ratios[1]:.2f}",
    )


def test_criterion_8_vmc_suite():
    t0 = time.time()
    parts = []

    # exact sampler: chi-square against the Born distribution, 100 seeded runs
    g = init_params(build_ansatz("universal", 4), InitScheme("uniform", seed=11))
    probs = np.abs(to_state_vector(g).amps) ** 2
    count = 100_000
    passes = 0
    weights = 1 << np.arange(3, -1, -1)
    keep = probs * count >= 5.0
    for s in range(100):
        bits = sample(g, count, seed=1000 + s)
        observed = np.bincount(bits @ weights, minlength=16).astype(float)
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(probs[keep] * count, probs[~keep].sum() * count)
        chi2 = float(np.sum((obs - exp) ** 2 / exp))
        passes += stats.chi2.sf(chi2, len(obs) - 1) > 0.01
    parts.append((f"chi-square {passes}/100", passes >= 95))

    # energy estimate within 5 standard errors
    g8 = init_params(build_ansatz("accordion", 8), InitScheme("uniform", seed=21))
    h8 = build_model(ModelSpec("tfim", 8, g=1.0))
    batch = sample_batch(g8, h8, 10_000, seed=5)
    z_e = abs(batch.energy_mean - exact_energy(g8, h8)) / batch.energy_stderr
    parts.append((f"energy z = {z_e:.2f}", z_e < 5.0))

    # every gradient entry within 5 standard errors
    g6 = init_params(build_ansatz("accordion", 6), InitScheme("uniform", seed=31))
    h6 = build_model(ModelSpec("tfim", 6, g=1.0))
    batch = sample_batch(g6, h6, 20_000, seed=7)
    z = np.abs(vmc_gradient(batch).entries - exact_gradient(g6, h6, mode="raw").entries)
    z /= np.maximum(vmc_gradient_stderr(batch), 1e-12)
    parts.append((f"gradient max z = {np.max(z):.2f}", float(np.max(z)) < 5.0))

    # sampled-gradient training reaches 1% relative error
    spec = ModelSpec("tfim", 10, g=0.0)
    h10 = build_model(spec)
    e0, _ = ground_energy(h10)
    trace = train(TrainConfig(model=spec, optimizer=AdamConfig(lr=0.01), epochs=300,
                              seed=0, gradient_source="vmc", batch_size=4096))
    rel = abs((exact_energy(trace.graph, h10) - e0) / e0)
    parts.append((f"vmc training rel {rel:.1e}", rel < 1e-2))

    _report(8, 900.0, t0, all(ok for _, ok in parts), "; ".join(msg for msg, _ in parts))


def test_criterion_9_structure_invariants():
    t0 = time.time()
    rng = np.random.default_rng(9)

    worst_s2 = 0.0
    for _ in range(20):
        n = int(rng.choice((4, 6, 8)))
        g = _redraw(build_ansatz("accordion", n), rng)
        amps = to_state_vector(g).amps
        for cut in range(2, n, 2):
            s = np.linalg.svd(amps.reshape(2**cut, 2 ** (n - cut)), compute_uv=False)
            worst_s2 = max(worst_s2, float(s[1]))

    counts_ok = all(
        3 * len(build_ansatz("accordion", n).nodes) == 3 * (3 * n // 2) for n in range(1, 21)
    )

    roundtrip_ok = True
    for n in (1, 3, 7):
        g = _redraw(build_ansatz("universal", n), rng)
        text = serialize(g)
        roundtrip_ok = roundtrip_ok and serialize(deserialize(text)) == text

    ok = worst_s2 < 1e-10 and counts_ok and roundtrip_ok
    _report(
        9, 60.0, t0, ok,
        f"max second singular value {worst_s2:.2e} across even cuts; "
        f"parameter counts {'ok' if counts_ok else 'WRONG'}; "
        f"serialization round trip {'ok' if roundtrip_ok else 'WRONG'}",
    )
