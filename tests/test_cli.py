"""Command-line contract: exit codes, config precedence, produced files."""

import dataclasses
import json
import math
import os
import platform

import numpy as np
import pytest
import scipy

from vdd.ansatz import build_accordion
from vdd.cli import run
from vdd.graph import ParamTriple, deserialize, serialize

pytestmark = pytest.mark.usefixtures("capsys")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def worked_example_doc() -> str:
    g = build_accordion(3)
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
    doc = serialize(build_accordion(3)).replace('"child0": 4', '"child0": 9', 1)
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


def test_threads_must_be_positive(capsys):
    code, _, err = invoke(capsys, "eigen", "--model", "tfim", "--n", "3", "--threads", "0")
    assert code == 2 and "threads" in err


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
