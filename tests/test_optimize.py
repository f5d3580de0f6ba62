"""Optimizer steps and the training loop."""

import dataclasses
import math

import numpy as np
import pytest

from vdd.ansatz import InitScheme
from vdd.exact import exact_energy, exact_gradient
from vdd.graph import ParamTriple
from vdd.hamiltonian import (
    ModelSpec,
    build_model,
    ground_energy,
    tfim_ground_energy,
    xx_ground_energy,
)
from vdd.optimize import (
    AdamConfig,
    AdamState,
    ConfigError,
    SgdConfig,
    TrainConfig,
    TrainingError,
    _adam,
    train,
)
from vdd.vmc import sample_batch, vmc_gradient, vmc_gradient_stderr
from graphs import random_graph


# ---------------------------------------------------------------------------
# update rules


def test_adam_first_step_is_signed_lr():
    moved = np.zeros(4)
    grads = np.array([3.0, -0.2, 1e-3, 0.0])
    state = AdamState.zeros(4)
    _adam(moved, grads, state, 0.01, 0.9, 0.999, 1e-8)
    for i, v in enumerate(grads):
        if abs(v) > 1e-6:
            assert 0.99 * 0.01 <= abs(moved[i]) <= 0.01 + 1e-12
            assert math.copysign(1, moved[i]) == -math.copysign(1, v)
    assert moved[3] == 0.0
    assert state.step == 1


def test_adam_zero_gradient_keeps_params():
    params = np.array([0.4, -1.2])
    _adam(params, np.zeros(2), AdamState.zeros(2), 0.01, 0.9, 0.999, 1e-8)
    np.testing.assert_array_equal(params, [0.4, -1.2])


def test_adam_stays_at_a_minimum():
    # Plain Adam reaches |x| ~ 1e-43 here by step 2000; then its second
    # moment decays until lr / sqrt(v) destabilizes the stiff direction and
    # |x| bursts back to ~1e-2.  Stepping on the running maximum of v does not.
    curvature = np.array([1.0, 3.0])
    x, state = np.array([1.0, -0.5]), AdamState.zeros(2)
    worst = 0.0
    for step in range(12000):
        _adam(x, curvature * x, state, 0.01, 0.9, 0.999, 1e-8)
        if step >= 4000:
            worst = max(worst, float(np.abs(x).max()))
    assert worst < 1e-12


@pytest.mark.parametrize("bad,optimizer", [(float("nan"), AdamConfig()), (float("inf"), SgdConfig())])
def test_train_names_a_non_finite_gradient_entry(bad, optimizer, monkeypatch):
    import vdd.optimize as optimize

    exact_evaluator = optimize._evaluator
    calls = []

    def faulty_evaluator(topo, h, count):
        evaluate, step = exact_evaluator(topo, h, count)

        def faulty(theta, mode):
            norm2, value, grad = evaluate(theta, mode)
            calls.append(mode)
            if len(calls) == 3:
                grad[0, 1, 1] = bad  # omega of the second node, node 2
            return norm2, value, grad
        return faulty, step

    monkeypatch.setattr(optimize, "_evaluator", faulty_evaluator)
    cfg = TrainConfig(model=ModelSpec("tfim", 3, g=1.0), optimizer=optimizer, epochs=5, seed=0)
    with pytest.raises(TrainingError, match=r"at epoch 3 for: \['omega2'\]"):
        train(cfg)


# ---------------------------------------------------------------------------
# the training loop


def test_train_config_validation():
    spec = ModelSpec("tfim", 4, g=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(model=spec, epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(model=spec, gradient_source="vmc")  # missing batch size
    with pytest.raises(ConfigError):
        TrainConfig(model=spec, loss="nll")
    with pytest.raises(ConfigError):
        TrainConfig(model=None, loss="energy_gap")
    with pytest.raises(ConfigError):
        TrainConfig(model=spec, loss="bce")
    with pytest.raises(ConfigError):
        TrainConfig(model=spec, optimizer=AdamConfig(lr=-0.5))
    # counts are integers: a float or a bool is refused by name, a numpy integer is not
    for name, value in (("epochs", 2.5), ("epochs", True), ("batch_size", 8.5),
                        ("batch_size", True), ("batch_size", None)):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(model=spec, gradient_source="vmc", **{"batch_size": 8, name: value})
    TrainConfig(model=spec, gradient_source="vmc", epochs=np.int64(3), batch_size=np.int64(8))


def test_train_config_refuses_a_seed_that_is_not_a_non_negative_integer():
    # numpy's SeedSequence would refuse these from inside the run, and a bool
    # would train as seed 0 or 1
    spec = ModelSpec("tfim", 4, g=1.0)
    for value in (2.5, -1, True):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(model=spec, seed=value)
    assert TrainConfig(model=spec, seed=np.int64(3)).seed == 3


def test_train_requires_reachable_oracle_or_e0():
    # the periodic chain has no free-fermion E0 (that is the open chain's)
    spec = ModelSpec("tfim", 13, g=0.0, boundary="periodic")
    with pytest.raises(ConfigError):
        train(TrainConfig(model=spec, epochs=1))
    # a user-supplied reference energy unlocks the same configuration
    trace = train(TrainConfig(model=spec, epochs=1, e0=-12.0,
                              gradient_source="vmc", batch_size=64))
    assert len(trace.records) == 1


def test_exact_training_runs_past_the_state_vector_cap():
    # the accordion is at most two nodes wide, so n = 64 trains by contraction
    trace = train(TrainConfig(model=ModelSpec("heisenberg", 64), loss="energy", epochs=5, seed=0))
    energies = trace.column("energy")
    assert min(energies) >= -3 * 32 - 1e-9  # one singlet per dimer is the accordion's best
    assert energies[-1] < energies[0]


def test_energy_gap_past_the_eigensolver_cap_uses_free_fermions():
    spec = ModelSpec("tfim", 64, g=1.0)
    e0 = tfim_ground_energy(spec)
    trace = train(TrainConfig(model=spec, epochs=3, seed=0))
    for rec in trace.records:
        assert rec.loss == pytest.approx(rec.energy - e0, abs=1e-9) and rec.loss > 0
        assert rec.relative_error == pytest.approx(abs(rec.loss / e0), rel=1e-12)


def test_energy_gap_past_the_eigensolver_cap_uses_the_xx_chain_oracle():
    spec = ModelSpec("heisenberg", 16, jz=0.0)
    e0 = xx_ground_energy(spec)
    trace = train(TrainConfig(model=spec, epochs=3, seed=0))
    for rec in trace.records:
        assert rec.loss == pytest.approx(rec.energy - e0, abs=1e-9) and rec.loss > 0


def test_train_tfim_g0_reaches_ground_state():
    spec = ModelSpec("tfim", 6, g=0.0)
    trace = train(TrainConfig(ansatz="accordion", model=spec, epochs=1500, seed=0))
    assert trace.final.relative_error < 1e-4
    assert len(trace.records) == 1500
    assert trace.records[0].epoch == 1 and trace.final.epoch == 1500


def test_energy_gap_loss_respects_variational_bound():
    spec = ModelSpec("heisenberg", 4)
    trace = train(TrainConfig(model=spec, epochs=300, seed=5))
    losses = np.array([rec.loss for rec in trace.records])
    assert np.all(losses >= -1e-9)


def test_training_cuts_the_loss_by_an_order_of_magnitude():
    spec = ModelSpec("tfim", 4, g=1.0)
    trace = train(TrainConfig(model=spec, epochs=3000, seed=5))
    assert trace.final.loss <= trace.records[0].loss / 10


def test_train_is_deterministic():
    spec = ModelSpec("tfim", 4, g=1.0)
    cfg = TrainConfig(model=spec, epochs=60, seed=8)
    a, b = train(cfg), train(cfg)
    assert [rec.loss for rec in a.records] == [rec.loss for rec in b.records]
    assert all(
        a.graph.nodes[k].params == b.graph.nodes[k].params for k in a.graph.nodes
    )


def test_trig_and_raw_modes_agree_when_both_converge():
    # At g=0 both modes converge (the optimum is a box corner, which the
    # raw projection handles); the converged energies coincide.
    spec0 = ModelSpec("tfim", 4, g=0.0)
    energies = {
        mode: train(TrainConfig(model=spec0, epochs=3000, seed=3, param_mode=mode)).final.energy
        for mode in ("trig", "raw")
    }
    assert abs(energies["trig"] - energies["raw"]) < 1e-6

    # At g=1 the optimum is interior. Raw Adam oscillates against the
    # singular r-box walls and stalls, but the trig-converged point is a
    # stationary point of the raw coordinates as well: the two modes
    # parameterize one landscape.
    spec1 = ModelSpec("tfim", 4, g=1.0)
    trace = train(TrainConfig(model=spec1, epochs=6000, seed=2, param_mode="trig"))
    assert max(rec.grad_norm for rec in trace.records[-500:]) < 1e-6  # and stays there
    raw_gv = exact_gradient(trace.graph, build_model(spec1), mode="raw")
    assert raw_gv.norm < 1e-5


def test_energy_and_energy_gap_losses_share_gradients():
    spec = ModelSpec("tfim", 4, g=0.7)
    a = train(TrainConfig(model=spec, epochs=40, seed=2, loss="energy_gap"))
    b = train(TrainConfig(model=spec, epochs=40, seed=2, loss="energy"))
    assert a.final.energy == b.final.energy  # E0 only shifts the reported loss
    e0, _ = ground_energy(build_model(spec))
    assert a.final.loss == pytest.approx(b.final.loss - e0, abs=1e-12)


def test_vmc_first_epoch_gradient_matches_exact():
    g = random_graph("accordion", 6, 4)
    h = build_model(ModelSpec("tfim", 6, g=1.0))
    batch = sample_batch(g, h, 10**5, seed=40, mode="trig")
    est = vmc_gradient(batch).entries
    se = vmc_gradient_stderr(batch)
    ref = exact_gradient(g, h, mode="trig").entries
    assert np.max(np.abs(est - ref) / np.maximum(se, 1e-12)) < 5.0


def test_vmc_training_reduces_energy():
    spec = ModelSpec("tfim", 6, g=0.0)
    trace = train(TrainConfig(model=spec, epochs=200, seed=1,
                              gradient_source="vmc", batch_size=512))
    assert trace.final.relative_error < 0.05
    # sampled losses can dither, but the trend must be sharply down
    assert trace.final.loss < trace.records[0].loss / 5


def test_raw_training_projects_r_into_box():
    spec = ModelSpec("tfim", 4, g=0.0)  # drives r toward the box corners
    trace = train(TrainConfig(model=spec, epochs=2000, seed=6, param_mode="raw"))
    for node in trace.graph.nodes.values():
        assert 1e-9 <= node.params.r <= 1 - 1e-9


def test_trace_csv_round_trip(tmp_path):
    spec = ModelSpec("tfim", 3, g=0.4)
    trace = train(TrainConfig(model=spec, epochs=12, seed=0))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,energy,relative_error,grad_norm,energy_stderr,wall_ms"
    assert len(lines) == 13
    cells = lines[1].split(",")
    assert cells[0] == "1"
    assert float(cells[1]) == pytest.approx(trace.records[0].loss)
    assert cells[5] == "" and trace.records[0].energy_stderr is None  # exact energies
    assert float(cells[6]) == trace.records[0].wall_ms > 0
    assert all(rec.wall_ms > 0 for rec in trace.records)


def test_vmc_epochs_record_the_batch_standard_error(tmp_path):
    from vdd.exact import _flatten, _LevelTables
    from vdd.vmc import VmcBatch, _draw

    spec = ModelSpec("heisenberg", 4)
    trace = train(TrainConfig(model=spec, epochs=3, seed=5, gradient_source="vmc",
                              batch_size=256))
    # the first epoch's batch, drawn again from the training run's sample stream
    g = random_graph("accordion", 4, 5)
    first = _draw(VmcBatch(_LevelTables(g), 256), build_model(spec), _flatten(g, "trig"), "trig",
                  np.random.default_rng([5, 1]))
    assert trace.records[0].energy == first.energy_mean
    assert trace.records[0].energy_stderr == first.energy_stderr > 0
    assert all(rec.energy_stderr > 0 for rec in trace.records)
    # the scatter kernel training runs gives the dense estimator's gradient
    assert trace.records[0].grad_norm == pytest.approx(
        np.linalg.norm(vmc_gradient(first).entries), rel=1e-12, abs=1e-12
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert float(path.read_text().splitlines()[1].split(",")[5]) == first.energy_stderr


# ---------------------------------------------------------------------------
# the trig chart across folds: Adam's state must live in the chart it steps in


def test_heisenberg_start_that_crosses_the_fold_converges():
    # This start carries a first-dimer magnitude across u = 0; refolding u
    # into [0, pi/2] each epoch flipped its gradient sign under Adam's
    # moments and pinned the node near r = 0 at E = -13.327.
    spec = ModelSpec("heisenberg", 10)
    trace = train(TrainConfig(ansatz="accordion", model=spec, optimizer=AdamConfig(lr=0.01),
                              epochs=500, seed=1425869459, param_mode="trig", loss="energy"))
    assert trace.final.energy == pytest.approx(-15.0, rel=1e-4)


def _chart_graph(base, theta):
    """Graph whose edge factors are cos(u) e^{i omega} and sin(u) e^{i phi}."""
    nodes = {}
    for k, nid in enumerate(sorted(base.nodes)):
        u, omega, phi = theta[3 * k : 3 * k + 3]
        c, s = math.cos(u), math.sin(u)
        params = ParamTriple(abs(c), omega + (math.pi if c < 0 else 0.0),
                             phi + (math.pi if s < 0 else 0.0))
        nodes[nid] = dataclasses.replace(base.nodes[nid], params=params)
    return dataclasses.replace(base, nodes=nodes)


def test_trig_training_is_adam_on_the_chart_energy():
    spec = ModelSpec("tfim", 4, g=0.0)
    h = build_model(spec)
    lr, epochs, step = 0.05, 100, 1e-6
    trace = train(TrainConfig(ansatz="accordion", model=spec, optimizer=AdamConfig(lr=lr),
                              epochs=epochs, seed=0, param_mode="trig", loss="energy"))

    g0 = random_graph("accordion", 4, 0)
    theta = np.array([x for nid in sorted(g0.nodes) for x in (
        math.acos(g0.nodes[nid].params.r), g0.nodes[nid].params.omega, g0.nodes[nid].params.phi)])

    def energy(t):
        return exact_energy(_chart_graph(g0, t), h)

    state = AdamState.zeros(theta.size)
    energies = []
    for _ in range(epochs):
        energies.append(energy(theta))
        grads = np.empty_like(theta)
        for i in range(theta.size):
            probe = np.zeros_like(theta)
            probe[i] = step
            grads[i] = (energy(theta + probe) - energy(theta - probe)) / (2 * step)
        _adam(theta, grads, state, lr, 0.9, 0.999, 1e-8)
    np.testing.assert_allclose([rec.energy for rec in trace.records], energies, atol=1e-6)


def test_training_steps_like_an_explicit_adam_step_loop():
    # the energies of train must be bit-identical to those of a loop over
    # energy_and_grad and _adam on its own θ and moments
    from vdd.exact import _flatten, _LevelTables, energy_and_grad

    spec = ModelSpec("heisenberg", 6)
    opt = AdamConfig(lr=0.02)
    trace = train(TrainConfig(ansatz="accordion", model=spec, optimizer=opt, epochs=50, seed=2,
                              param_mode="trig", loss="energy"))
    g = random_graph("accordion", 6, 2)
    topo, h = _LevelTables(g), build_model(spec)
    theta = _flatten(g, "trig").ravel()
    state = AdamState.zeros(theta.size)
    energies = []
    for _ in range(50):
        energy, grad = energy_and_grad(topo, h, theta.reshape(-1, 3), "trig")
        energies.append(energy)
        _adam(theta, grad.ravel(), state, opt.lr, opt.beta1, opt.beta2, opt.eps)
    assert [rec.energy for rec in trace.records] == energies


@pytest.mark.parametrize("optimizer", [AdamConfig(lr=0.02), SgdConfig(lr=0.02)], ids=["adam", "sgd"])
@pytest.mark.parametrize("mode", ["trig", "raw"])
@pytest.mark.parametrize("kind,n", [("accordion", 6), ("universal", 4)], ids=["contraction", "dense"])
def test_exact_training_is_a_loop_over_energy_and_grad(kind, n, mode, optimizer):
    # train evaluates θ with the engine it compiled for the run; its trace and
    # graph must be bit-identical to a loop over the public energy_and_grad
    from vdd.exact import _CLAMP, _contracts, _flatten, _LevelTables, _materialize, energy_and_grad

    spec, e0 = ModelSpec("heisenberg", n), -2.0 * n
    h = build_model(spec)
    trace = train(TrainConfig(ansatz=kind, model=spec, optimizer=optimizer, epochs=30, seed=4,
                              param_mode=mode, e0=e0))
    g = random_graph(kind, n, 4)
    topo = _LevelTables(g)
    assert _contracts(topo, h) == (kind == "accordion")
    theta = _flatten(g, mode).ravel()
    state = AdamState.zeros(theta.size)
    for rec in trace.records:
        energy, grad = energy_and_grad(topo, h, theta.reshape(-1, 3), mode)
        grad = grad.ravel()
        assert (rec.energy, rec.loss, rec.grad_norm) == (energy, energy - e0, math.sqrt(grad @ grad))
        if isinstance(optimizer, AdamConfig):
            _adam(theta, grad, state, optimizer.lr, optimizer.beta1, optimizer.beta2,
                  optimizer.eps)
        else:
            theta -= optimizer.lr * grad
        if mode == "raw":
            theta[0::3] = np.clip(theta[0::3], _CLAMP, 1.0 - _CLAMP)
    assert trace.graph == _materialize(g, theta, mode)


def test_raw_training_from_a_basis_state_warns_on_its_first_epoch():
    # a basis init puts every r on {0, 1}, where the raw chart's d/dr is
    # singular; the first epoch's gradient is taken there
    from vdd.exact import SingularGradientWarning

    cfg = TrainConfig(model=ModelSpec("tfim", 3, g=1.0), epochs=1, param_mode="raw",
                      init=InitScheme("basis", bits=(0, 1, 1)))
    with pytest.warns(SingularGradientWarning, match=r"for: r1, r2, r3"):
        train(cfg)


def test_training_picks_its_exact_engine_once(monkeypatch):
    import vdd.exact as exact

    picks = []
    contracts = exact._contracts

    def counted(topo, h):
        picks.append(topo.num_qubits)
        return contracts(topo, h)

    monkeypatch.setattr(exact, "_contracts", counted)
    train(TrainConfig(model=ModelSpec("heisenberg", 6), epochs=20, seed=0))
    assert picks == [6]


def test_trained_graph_carries_the_final_parameters():
    # The graph is written once, after the last step; it must hold the state
    # the next epoch would have evaluated, also for nodes whose u left
    # [0, pi/2] (two do in this run), where a pi phase shift stands in for
    # the sign of cos u or sin u.
    spec = ModelSpec("tfim", 4, g=1.0)
    cfg = TrainConfig(ansatz="accordion", model=spec, optimizer=AdamConfig(lr=0.05),
                      epochs=60, seed=0, loss="energy")
    one_more = train(dataclasses.replace(cfg, epochs=61))
    assert exact_energy(train(cfg).graph, build_model(spec)) == pytest.approx(
        one_more.final.energy, abs=1e-12
    )
