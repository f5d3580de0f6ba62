"""Command-line contract: exit codes, config precedence, produced files."""

import argparse
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
import scipy

import vdd
from vdd.ansatz import build_ansatz
from vdd.cli import build_parser, run
from vdd.graph import ParamTriple, deserialize, serialize

pytestmark = pytest.mark.usefixtures("capsys")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def left_behind(out_dir):
    return list(out_dir.iterdir()) if out_dir.exists() else []


def worked_example_doc() -> str:
    g = build_ansatz("accordion", 3)
    triples = {1: (0.6, 0.3, 0.5), 2: (0.8, -0.2, 1.1), 3: (0.7, 0.9, 0.0), 4: (0.5, 0.4, 1.3)}
    nodes = {
        nid: dataclasses.replace(node, params=ParamTriple(*triples[nid]))
        for nid, node in g.nodes.items()
    }
    return serialize(dataclasses.replace(g, nodes=nodes))


def test_eigen_prints_bond_count_energy(capsys):
    code, out, _ = invoke(capsys, "eigen", "--model", "tfim", "--n", "5", "--g", "0.0")
    assert code == 0
    assert float(out.strip()) == -4.0


def test_eigen_over_capacity_is_config_error(capsys):
    code, _, err = invoke(capsys, "eigen", "--model", "tfim", "--n", "13", "--g", "1.0")
    assert code == 2
    assert "config error" in err


def test_unknown_flag_exits_two(capsys):
    code, _, _ = invoke(capsys, "eigen", "--model", "tfim", "--n", "4", "--what", "1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("train", "--model", "tfim", "--n", "4", "--g", "nan"),
    ("variance-scan", "--model", "tfim", "--n-values", "1,3"),
    ("variance-scan", "--model", "heisenberg", "--n-values", "2,3", "--jx", "nan"),
    ("g-sweep", "--n", "1", "--g-values", "1"),
    ("g-sweep", "--n", "4", "--g-values", "1,nan", "--epochs", "100000"),
])
def test_invalid_model_is_a_config_error(tmp_path, capsys, argv):
    # the g-sweep's epochs would take minutes: its models are checked before any training
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, *argv, "--output-dir", str(out_dir))
    assert code == 2 and "config error: " in err
    assert not any(out_dir.iterdir()) if out_dir.exists() else True


def test_build_validate_amplitude_flow(tmp_path, capsys):
    out_dir = tmp_path / "b"
    code, out, _ = invoke(
        capsys, "build", "--ansatz", "accordion", "--n", "3",
        "--init", "uniform", "--seed", "5", "--output-dir", str(out_dir),
    )
    assert code == 0
    vdd_path = out_dir / "vdd.json"
    assert vdd_path.exists()
    assert str(vdd_path) in out
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert resolved["command"] == "build" and resolved["seed"] == 5

    code, out, _ = invoke(capsys, "validate", "--vdd", str(vdd_path))
    assert code == 0 and out.strip() == "valid"

    code, out, _ = invoke(capsys, "amplitude", "--vdd", str(vdd_path), "--bits", "010")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    g = deserialize(vdd_path.read_text())
    from vdd.graph import amplitude as amp_of

    expected = amp_of(g, (0, 1, 0))
    assert float(lines["modulus"]) == pytest.approx(abs(expected), abs=1e-12)
    assert float(lines["phase"]) == pytest.approx(math.atan2(expected.imag, expected.real), abs=1e-12)


def test_amplitude_on_worked_example(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(worked_example_doc())
    code, out, _ = invoke(capsys, "amplitude", "--vdd", str(path), "--bits", "001")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert float(lines["modulus"]) == pytest.approx(0.41569219381653044, abs=1e-12)
    assert float(lines["phase"]) == pytest.approx(1.4, abs=1e-12)


def test_amplitude_bad_bits(tmp_path, capsys):
    path = tmp_path / "eq.json"
    path.write_text(worked_example_doc())
    for bits in ("01", "0a1"):
        code, _, err = invoke(capsys, "amplitude", "--vdd", str(path), "--bits", bits)
        assert code == 2 and "config error" in err


def test_validate_reports_diagnostics_with_exit_one(tmp_path, capsys):
    doc = serialize(build_ansatz("accordion", 3)).replace('"child0": 4', '"child0": 9', 1)
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, _ = invoke(capsys, "validate", "--vdd", str(bad))
    assert code == 1
    assert out.strip() != "valid" and out.strip()

    mangled = tmp_path / "mangled.json"
    mangled.write_text(doc[:40])
    code, _, err = invoke(capsys, "validate", "--vdd", str(mangled))
    assert code == 2 and "config error" in err


def test_statevector_csv(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text(worked_example_doc())
    out_dir = tmp_path / "sv"
    code, _, _ = invoke(capsys, "statevector", "--vdd", str(src), "--output-dir", str(out_dir))
    assert code == 0
    lines = (out_dir / "statevector.csv").read_text().strip().splitlines()
    assert lines[0] == "index,bitstring,amplitude_re,amplitude_im"
    assert len(lines) == 9
    amps = np.array([complex(float(l.split(",")[2]), float(l.split(",")[3])) for l in lines[1:]])
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert lines[2].split(",")[1] == "001"
    assert abs(amps[1]) == pytest.approx(0.41569219381653044, abs=1e-12)


def test_sample_without_model_leaves_local_columns_blank(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text(worked_example_doc())
    out_dir = tmp_path / "s"
    code, _, _ = invoke(
        capsys, "sample", "--vdd", str(src), "--count", "6", "--seed", "1",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    lines = (out_dir / "samples.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_index,bitstring,local_value_re,local_value_im"
    assert len(lines) == 7
    assert lines[1].endswith(",,")


def test_sample_with_model_fills_local_values(tmp_path, capsys):
    src = tmp_path / "g.json"
    src.write_text(worked_example_doc())
    out_dir = tmp_path / "s"
    code, _, _ = invoke(
        capsys, "sample", "--vdd", str(src), "--count", "4", "--seed", "1",
        "--model", "tfim", "--g", "1.0", "--output-dir", str(out_dir),
    )
    assert code == 0
    rows = (out_dir / "samples.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        float(cells[2]), float(cells[3])


@pytest.mark.parametrize("model", [(), ("--model", "tfim", "--g", "1.0")],
                         ids=["bits", "local-values"])
def test_sample_refuses_a_negative_seed(tmp_path, capsys, model):
    # the seed once reached numpy's default_rng unchecked: exit 1
    src = tmp_path / "g.json"
    src.write_text(worked_example_doc())
    out_dir = tmp_path / "s"
    code, _, err = invoke(capsys, "sample", "--vdd", str(src), "--count", "4", "--seed", "-1",
                          *model, "--output-dir", str(out_dir))
    assert code == 2 and "seed must be an integer >= 0, got -1" in err
    assert not left_behind(out_dir)


def test_train_writes_trace_and_final_graph(tmp_path, capsys):
    out_dir = tmp_path / "t"
    code, out, _ = invoke(
        capsys, "train", "--model", "tfim", "--n", "4", "--g", "0.0",
        "--epochs", "40", "--seed", "3", "--output-dir", str(out_dir),
    )
    assert code == 0
    lines = (out_dir / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,energy,relative_error,grad_norm,energy_stderr,wall_ms"
    assert len(lines) == 41
    assert lines[1].split(",")[0] == "1" and lines[-1].split(",")[0] == "40"
    g = deserialize((out_dir / "final_vdd.json").read_text())
    assert g.num_qubits == 4
    assert "epoch 40" in out
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert resolved["loss"] == "energy_gap" and resolved["param_mode"] == "trig"
    env = resolved["environment"]
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__ and env["cpu_count"] == os.cpu_count()


def test_train_cleanup_on_config_error(tmp_path, capsys):
    out_dir = tmp_path / "broken"
    code, _, err = invoke(
        capsys, "train", "--model", "tfim", "--n", "4", "--epochs", "0",
        "--seed", "1", "--output-dir", str(out_dir),
    )
    assert code == 2 and "config error" in err
    assert not any(out_dir.iterdir()) if out_dir.exists() else True


def test_config_file_merging_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "g": 2.0}))
    # file value used when no flag
    code, out, _ = invoke(capsys, "eigen", "--model", "tfim", "--config", str(cfg))
    assert code == 0
    assert float(out.strip()) == pytest.approx(-10.503877297734341, abs=1e-9)
    # explicit flag wins over the file
    code, out, _ = invoke(capsys, "eigen", "--model", "tfim", "--config", str(cfg), "--g", "0.0")
    assert code == 0 and float(out.strip()) == -4.0


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 4, "whoops": True}))
    code, _, err = invoke(capsys, "eigen", "--model", "tfim", "--config", str(cfg))
    assert code == 2 and "whoops" in err


def test_generated_seed_is_recorded(tmp_path, capsys):
    out_dir = tmp_path / "g"
    code, _, err = invoke(
        capsys, "build", "--ansatz", "product", "--n", "2", "--init", "uniform",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    assert "generated" in err
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert isinstance(resolved["seed"], int)


def test_threads_is_refused(tmp_path, capsys):
    # the BLAS pool follows OMP_NUM_THREADS and OPENBLAS_NUM_THREADS, not a flag
    assert invoke(capsys, "eigen", "--model", "tfim", "--n", "3", "--threads", "1")[0] == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 1}))
    code, _, err = invoke(capsys, "eigen", "--model", "tfim", "--n", "3", "--config", str(cfg))
    assert code == 2 and "threads" in err


def test_resolved_config_records_the_blas_thread_variables(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out_dir = tmp_path / "out"
    assert invoke(capsys, "build", "--n", "2", "--output-dir", str(out_dir))[0] == 0
    env = json.loads((out_dir / "resolved_config.json").read_text())["environment"]
    assert env["OMP_NUM_THREADS"] == "3" and env["OPENBLAS_NUM_THREADS"] is None


# every settable value of each command, read off the parser
FLAGS = {
    "build": "config output_dir ansatz n init seed out",
    "validate": "config vdd",
    "amplitude": "config vdd bits",
    "statevector": "config output_dir vdd out",
    "eigen": "config model n g jx jy jz boundary",
    "sample": "config output_dir vdd count seed out model g jx jy jz boundary",
    "train": "config output_dir model n g jx jy jz boundary ansatz optimizer lr beta1 "
             "beta2 eps epochs seed param_mode gradient_source batch_size loss e0 init",
    "variance-scan": "config output_dir model g jx jy jz boundary n_values tracked "
                     "num_seeds base_seed param_mode ansatz",
    "g-sweep": "config output_dir g_values n epochs lr seed ansatz param_mode",
    "emit-svg": "config output_dir csv x y log_y out",
}


def test_each_command_has_its_flag_set():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}
    assert got == {name: set(flags.split()) for name, flags in FLAGS.items()}


@pytest.mark.parametrize("argv", [
    ("build", "--n", "2"),
    ("statevector", "--vdd", "{vdd}"),
    ("sample", "--vdd", "{vdd}", "--count", "2"),
    ("train", "--model", "tfim", "--n", "2", "--epochs", "1"),
    ("variance-scan", "--model", "tfim", "--n-values", "2,3", "--num-seeds", "2"),
    ("g-sweep", "--g-values", "1", "--n", "2", "--epochs", "1"),
    ("emit-svg", "--csv", "{csv}", "--x", "epoch", "--y", "loss"),
])
def test_resolved_config_holds_exactly_the_options(tmp_path, capsys, argv):
    vdd, table = tmp_path / "g.json", tmp_path / "t.csv"
    vdd.write_text(worked_example_doc())
    table.write_text("epoch,loss\n1,2\n")
    out_dir = tmp_path / "out"
    argv = [a.format(vdd=vdd, csv=table) for a in argv]
    assert invoke(capsys, *argv, "--output-dir", str(out_dir))[0] == 0
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert set(resolved) == set(FLAGS[argv[0]].split()) - {"config"} | {"command", "environment"}


@pytest.mark.parametrize("argv", [
    ("variance-scan", "--model", "tfim", "--n-values", "2,x"),
    ("variance-scan", "--model", "tfim", "--n-values", "2.5"),
    ("g-sweep", "--g-values", "1,x"),
])
def test_malformed_list_flag_is_named(tmp_path, capsys, argv):
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, *argv, "--output-dir", str(out_dir))
    assert code == 2 and argv[-2] in err
    assert not left_behind(out_dir)


@pytest.mark.parametrize("argv, doc", [
    (("build", "--n", "0"), None),
    (("build", "--n", "3", "--init", "basis:01"), None),
    (("build", "--n", "3", "--init", "foo"), None),
    (("train", "--model", "tfim", "--n", "3", "--init", "foo", "--epochs", "2"), None),
    (("build", "--n", "3"), {"ansatz": "window"}),
    (("variance-scan", "--model", "tfim", "--num-seeds", "2"), {"n_values": [2.7, 3.2]}),
    (("variance-scan", "--model", "tfim", "--num-seeds", "2"), {"n_values": [True, 3]}),
    (("train", "--model", "tfim", "--n", "3", "--epochs", "2"), {"optimizer": "adamw"}),
    (("build", "--n", "3", "--init", "uniform", "--seed", "-1"), None),
])
def test_bad_value_is_a_config_error(tmp_path, capsys, argv, doc):
    out_dir = tmp_path / "out"
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv += ("--config", str(cfg))
    code, _, err = invoke(capsys, *argv, "--output-dir", str(out_dir))
    assert code == 2 and "config error: " in err
    assert doc is None or next(iter(doc)) in err
    assert not left_behind(out_dir)


@pytest.mark.parametrize("argv, named", [
    (("--model", "tfim", "--n", "3", "--init", "basis:01"), "needs 3 bits, got 2"),
    (("--model", "tfim", "--n", "3", "--lr", "inf"), "lr must be positive and finite"),
    (("--model", "tfim", "--n", "3", "--eps", "inf"), "eps must be positive and finite"),
], ids=["basis-length", "lr-inf", "eps-inf"])
def test_train_refuses_a_value_its_run_cannot_use(tmp_path, capsys, argv, named):
    # each once failed inside the run with exit 1, or, an infinite eps, trained
    # without moving θ
    out_dir = tmp_path / "out"
    code, _, err = invoke(capsys, "train", *argv, "--epochs", "2", "--seed", "1",
                          "--output-dir", str(out_dir))
    assert code == 2 and "config error: " in err and named in err
    assert not left_behind(out_dir)


def test_emit_svg_deterministic_and_strict(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("epoch,loss\n1,3.0\n2,1.5\n3,0.5\n4,-0.25\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = invoke(
            capsys, "emit-svg", "--csv", str(csv_path), "--x", "epoch", "--y", "loss",
            "--output-dir", str(d),
        )
        assert code == 0
    svg1 = (d1 / "chart.svg").read_bytes()
    assert svg1 == (d2 / "chart.svg").read_bytes()
    assert svg1.startswith(b"<svg")

    # log scale drops the nonpositive rows and labels the axis
    code, _, _ = invoke(
        capsys, "emit-svg", "--csv", str(csv_path), "--x", "epoch", "--y", "loss",
        "--log-y", "--output-dir", str(d1),
    )
    assert code == 0
    assert b"log10(loss)" in (d1 / "chart.svg").read_bytes()

    # missing column: config error, nothing left behind
    bad_dir = tmp_path / "bad"
    code, _, err = invoke(
        capsys, "emit-svg", "--csv", str(csv_path), "--x", "epoch", "--y", "nope",
        "--output-dir", str(bad_dir),
    )
    assert code == 2 and "nope" in err
    assert not (bad_dir / "chart.svg").exists()

    # non-numeric and non-finite cells and an empty table are config errors too
    mixed = tmp_path / "mixed.csv"
    for cells in ("1,oops", "2,inf", "3,nan", "inf,2", "nan,2"):
        mixed.write_text(f"epoch,loss\n1,2\n{cells}\n")
        assert invoke(capsys, "emit-svg", "--csv", str(mixed), "--x", "epoch", "--y", "loss",
                      "--output-dir", str(bad_dir))[0] == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("epoch,loss\n")
    assert invoke(capsys, "emit-svg", "--csv", str(empty), "--x", "epoch", "--y", "loss",
                  "--output-dir", str(bad_dir))[0] == 2


def test_variance_scan_cli(tmp_path, capsys):
    out_dir = tmp_path / "vs"
    code, _, _ = invoke(
        capsys, "variance-scan", "--model", "tfim", "--g", "1.0",
        "--n-values", "2,3", "--num-seeds", "5", "--base-seed", "4",
        "--output-dir", str(out_dir),
    )
    assert code == 0
    rows = (out_dir / "variance_scan.csv").read_text().strip().splitlines()
    assert rows[0] == "model,g,n,param,variance,num_seeds"
    assert len(rows) == 7  # 2 sizes x 3 default tracked labels
    fits = (out_dir / "variance_fits.csv").read_text().strip().splitlines()
    assert fits[0] == "model,g,param,slope,intercept,r2"
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert resolved["param_mode"] == "raw"


def test_variance_scan_reports_a_skipped_label_once(tmp_path):
    # the accordion layout has no node 5 at n = 2
    src = os.path.dirname(os.path.dirname(vdd.__file__))  # the vdd under test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "vdd.cli", "variance-scan", "--model", "tfim", "--g", "1",
         "--n-values", "2,4", "--tracked", "r1,r5", "--num-seeds", "3", "--base-seed", "1",
         "--output-dir", str(tmp_path / "vs")],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stderr.count("label 'r5' absent at n=2; row skipped") == 1


def test_g_sweep_cli(tmp_path, capsys):
    out_dir = tmp_path / "gs"
    code, out, _ = invoke(
        capsys, "g-sweep", "--g-values", "0.5", "--n", "4", "--epochs", "30",
        "--seed", "2", "--output-dir", str(out_dir),
    )
    assert code == 0
    sweep = (out_dir / "g_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "g,final_energy,e0,relative_error"
    assert len(sweep) == 2
    assert (out_dir / "dimer_benchmark.csv").exists()
    assert "relative_error" in out
