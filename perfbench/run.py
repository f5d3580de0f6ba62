"""Benchmark for vdd: exact training, VMC training and a gradient-variance scan.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-exact --seed 0 --seconds 30 --trace 0

Workloads (all on the accordion ansatz and the open Heisenberg chain, J = 1):

* train-exact  `train` at n = 10, exact gradient, trig chart, Adam lr 0.01,
               1000 epochs per operation.
* train-vmc    `train` at n = 16, VMC gradient from B = 4096 samples, trig
               chart, Adam lr 0.01, loss "energy", 40 epochs per operation.
* scan-exact   `variance_scan` at n in {13, 14}, raw mode, 32 seeds per n,
               tracked entries r1, r2, r-1.
* all          each of the above in its own process, one after the other.

One operation is one `train` or `variance_scan` call on inputs drawn from
`--seed`.  Operations repeat until `--seconds` have passed (at least three);
each is timed and then checked, and a failed check makes the operation
count as failed and leaves its time out.  A step is one epoch on the
`train-*` workloads and one exact gradient on `scan-exact`.

Timings are reported in reference-CPU seconds: every timed interval is
scaled by the speed factor of fixed calibration kernels measured right
before and after it (see Calibration), which removes most of the host's
speed drift from the figures.  The raw figures are kept in the result file.

`--trace 0` prints the end-to-end metrics; `--trace 1` prints per-layer
metrics from spans recorded around the calls into each `vdd` module (see
tracing.py).  The last line of standard output is the result object; the
line before it holds the machine and run facts.  Both, with the per-operation
timings (and the spans of a traced run), are also written to perfbench/out/.
Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_SAMPLES = 9  # set-ups per run: this process plus fresh probe processes
MIN_OPS = 3
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def load_vdd():
    """Import vdd from this checkout's src/ (and nowhere else)."""
    if not (SRC / "vdd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vdd sources under {SRC}; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import vdd
    import vdd.ansatz
    import vdd.exact
    import vdd.experiments
    import vdd.hamiltonian
    import vdd.optimize
    import vdd.vmc

    if Path(vdd.__file__).resolve().parent != SRC / "vdd":
        raise SystemExit(f"perfbench: imported vdd from {vdd.__file__}, not from {SRC}")
    return vdd


def derived_seed(seed: int, stream: int, index: int) -> int:
    """Independent input seed for (stream, index) under the workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1, np.uint64)[0])


OP_STREAM, FRESH_STREAM, GATE_STREAM = 0, 1, 2


# ---------------------------------------------------------------------------
# workloads


def accordion_optimum(n: int) -> float:
    """Lowest open-Heisenberg energy over dimer products: one singlet (-3) per pair."""
    return -3.0 * (n // 2)


class Workload:
    """One workload: set-up in __init__, one timed `op` per input seed, checks."""

    name = ""
    samples_per_step = 0  # Born samples drawn per step
    ground_energy_s = 0.0  # set-up time spent in ground_energy

    def check_run(self, ops: list[dict]) -> str | None:
        """Check over all operations of a run; None when it passes."""
        return None

    def train(self, seed: int, **config):
        """`train` on the accordion ansatz, trig chart, Adam lr 0.01."""
        opt = self.vdd.optimize
        return opt.train(opt.TrainConfig(
            ansatz="accordion",
            model=self.spec,
            optimizer=opt.AdamConfig(lr=0.01),
            epochs=self.epochs,
            seed=seed,
            param_mode="trig",
            **config,
        ))


class TrainExact(Workload):
    name = "train-exact"

    def __init__(self, vdd, smoke: bool):
        self.vdd = vdd
        self.n = 4 if smoke else 10
        self.epochs = 600 if smoke else 1000
        self.steps = self.epochs
        self.spec = vdd.hamiltonian.ModelSpec("heisenberg", self.n)
        h = vdd.hamiltonian.build_model(self.spec)
        start = time.perf_counter()
        self.e0, _ = vdd.hamiltonian.ground_energy(h)
        self.ground_energy_s = time.perf_counter() - start
        self.target = accordion_optimum(self.n)

    def op(self, seed: int):
        return self.train(seed, gradient_source="exact", loss="energy_gap", e0=self.e0)

    def epochs_to_target(self, trace) -> int | None:
        """First epoch within 1e-4 (relative) of the accordion optimum."""
        for rec in trace.records:
            if abs(rec.energy - self.target) <= 1e-4 * abs(self.target):
                return rec.epoch
        return None

    def check(self, seed: int, trace) -> str | None:
        energies = [rec.energy for rec in trace.records]
        if min(energies) < self.target - 1e-9:
            return f"energy {min(energies)!r} below the accordion optimum {self.target}"
        start, end = energies[0], energies[-1]
        if end > start + (self.target - start) / 2:
            return f"energy went from {start:.4f} to {end:.4f}: less than half way to {self.target}"
        return None

    def check_run(self, ops: list[dict]) -> str | None:
        # A few starts end at a boundary point of the chart (a first-dimer node
        # pinned near r = 0) instead of the optimum, so convergence is checked
        # over the run, and the share that converged is a traced metric.
        converged = sum(op.get("epochs_to_target") is not None for op in ops)
        if 2 * converged <= len(ops):
            return f"only {converged} of {len(ops)} operations ended within 1e-4 of {self.target}"
        return None


class TrainVmc(Workload):
    name = "train-vmc"

    def __init__(self, vdd, smoke: bool):
        self.vdd = vdd
        self.n = 6 if smoke else 16
        self.batch = 256 if smoke else 4096
        self.epochs = 40
        self.steps = self.epochs
        self.samples_per_step = self.batch
        self.spec = vdd.hamiltonian.ModelSpec("heisenberg", self.n)
        self.h = vdd.hamiltonian.build_model(self.spec)
        self.target = accordion_optimum(self.n)

    def op(self, seed: int):
        return self.train(seed, gradient_source="vmc", batch_size=self.batch, loss="energy")

    def check(self, seed: int, trace) -> str | None:
        start = trace.records[0].energy  # sampled estimate at the initial parameters
        end = self.vdd.exact.exact_energy(trace.graph, self.h)
        if end < self.target - 1e-9:
            return f"exact energy {end!r} below the accordion optimum {self.target}"
        # Correct runs cover 0.57 +- 0.065 of the way (min 0.36 over 144 starts);
        # a gradient that does not descend covers about none of it.
        if end > start + (self.target - start) / 6:
            return f"energy went from {start:.4f} to {end:.4f}: less than a sixth of the way to {self.target}"
        batch = self.vdd.vmc.sample_batch(
            trace.graph, self.h, self.batch, seed=derived_seed(seed, FRESH_STREAM, 0), mode="trig"
        )
        z = (batch.energy_mean - end) / batch.energy_stderr
        if not abs(z) <= 5.0:
            return f"fresh-sample energy {batch.energy_mean:.6f} is {z:.2f} standard errors from exact {end:.6f}"
        return None


class ScanExact(Workload):
    name = "scan-exact"
    tracked = ("r1", "r2", "r-1")

    def __init__(self, vdd, smoke: bool):
        self.vdd = vdd
        self.smoke = smoke
        self.n_values = (5, 6) if smoke else (13, 14)
        self.num_seeds = 4 if smoke else 32
        self.steps = self.num_seeds * len(self.n_values)

    def scan(self, base_seed: int, num_seeds: int):
        ex = self.vdd.experiments
        cfg = ex.VarianceScanConfig(
            model="heisenberg",
            n_values=self.n_values,
            tracked_params=self.tracked,
            num_seeds=num_seeds,
            base_seed=base_seed,
            param_mode="raw",
        )
        return ex.variance_scan(cfg)

    def op(self, seed: int):
        return self.scan(seed, self.num_seeds)

    def check(self, seed: int, result) -> str | None:
        variances = [row.variance for row in result.rows]
        if len(variances) != len(self.n_values) * len(self.tracked):
            return f"expected {len(self.n_values) * len(self.tracked)} rows, got {len(variances)}"
        if not all(math.isfinite(v) and v > 0 for v in variances):
            return f"non-finite or non-positive variance in {variances}"
        return None

    def reference_rows(self) -> list[list]:
        """[n, param, variance] of the 4-seed scan at base seed 0."""
        return [[row.n, row.param, row.variance] for row in self.scan(0, 4).rows]

    def check_reference(self) -> str | None:
        key = "smoke" if self.smoke else "full"
        expected = json.loads((BENCH_DIR / "reference_scan.json").read_text())[key]
        got = self.reference_rows()
        if [r[:2] for r in got] != [r[:2] for r in expected]:
            return f"reference scan rows {[r[:2] for r in got]} differ from {[r[:2] for r in expected]}"
        for (n, param, var), (_, _, ref) in zip(got, expected):
            if not math.isclose(var, ref, rel_tol=1e-8, abs_tol=0.0):
                return f"reference scan variance n={n} {param}: {var!r} != recorded {ref!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (TrainExact, TrainVmc, ScanExact)}


def gradient_check(vdd, seed: int, smoke: bool) -> str | None:
    """Analytic exact gradient against central finite differences at small n."""
    import numpy as np

    n = 4 if smoke else 6
    h = vdd.hamiltonian.build_model(vdd.hamiltonian.ModelSpec("heisenberg", n))
    scheme = vdd.ansatz.InitScheme("uniform", seed=derived_seed(seed, GATE_STREAM, 0))
    g = vdd.ansatz.init_params(vdd.ansatz.build_ansatz("accordion", n), scheme)
    for mode in ("trig", "raw"):
        a = vdd.exact.exact_gradient(g, h, mode=mode).entries
        # Richardson-extrapolated central differences: raw-mode energies go as
        # sqrt(1 - r^2), so at r near 1 a plain step-1e-6 difference is off by
        # more than 1e-6 (1 init in ~1000); the extrapolation cancels the h^2 term.
        coarse = vdd.exact.finite_difference(g, h, step=1e-6, mode=mode).entries
        fine = vdd.exact.finite_difference(g, h, step=5e-7, mode=mode).entries
        fd = (4.0 * fine - coarse) / 3.0
        rel = float(np.linalg.norm(a - fd) / np.linalg.norm(a))
        if not rel <= 1e-6:
            return f"{mode} gradient differs from finite differences by {rel:.3e} (relative)"
    return None


# ---------------------------------------------------------------------------
# measurement


class Calibration:
    """Host-speed probe: three fixed kernels owned by the benchmark, not by vdd.

    One per kind of work the workloads do: an interpreter dict loop, a
    16-level path walk over 4096 rows (like the VMC amplitude walk) and 13
    Pauli-string applications to a 2^14 vector (like the exact H action).
    `factor` is the geometric mean of reference time over measured time;
    multiplying an interval measured next to it by the factor gives
    reference-CPU seconds.
    """

    REF_S = {"interp": 0.0035, "walk": 0.0055, "apply": 0.005}

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.bits = rng.integers(0, 2, size=(4096, 16))
        self.edge = rng.random((17, 4)) + 1j * rng.random((17, 4))
        self.child = rng.integers(0, 4, size=(2, 17, 4))
        self.vec = rng.random(1 << 14) + 1j * rng.random(1 << 14)
        self.idx = np.arange(1 << 14)

    def interp(self) -> None:
        table: dict[int, int] = {}
        for i in range(20000):
            table[i & 255] = table.get(i & 255, 0) + i * 3

    def walk(self) -> None:
        np = self.np
        for _ in range(3):
            amp = np.ones(4096, dtype=np.complex128)
            pos = np.zeros(4096, dtype=np.int64)
            for level in range(16):
                zero = self.bits[:, level] == 0
                amp = amp * np.where(zero, self.edge[level][pos], self.edge[level + 1][pos])
                pos = np.where(zero, self.child[0, level][pos], self.child[1, level][pos])

    def apply(self) -> None:
        np = self.np
        out = np.zeros_like(self.vec)
        for i in range(13):
            mask = 3 << i
            sign = (1 - 2 * (np.bitwise_count(self.idx & mask) & 1)).astype(np.int8)
            out[self.idx ^ mask] += 0.5 * (sign * self.vec)

    def factor(self) -> float:
        logs = []
        for name, ref in self.REF_S.items():
            kernel = getattr(self, name)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            logs.append(math.log(ref / statistics.median(times)))
        return math.exp(sum(logs) / len(logs))


def probe_setup(args) -> float:
    """Set-up time of a fresh process (imports + workload set-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def facts(args, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "machine": platform.machine(),
        **extra,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def run_workload(args) -> int:
    start = time.perf_counter()
    vdd = load_vdd()
    wl = WORKLOADS[args.workload](vdd, args.smoke)
    setup_raw = [time.perf_counter() - start]
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cal = Calibration()
    cal_f = setup_factor = cal.factor()
    setup_ref = [setup_raw[0] * setup_factor]
    for _ in range(SETUP_SAMPLES - 1):
        raw = probe_setup(args)
        before, cal_f = cal_f, cal.factor()
        setup_raw.append(raw)
        setup_ref.append(raw * (before + cal_f) / 2)

    attempted = failed = 0
    notes: list[str] = []

    def record_failure(what: str, message: str) -> None:
        nonlocal failed
        failed += 1
        notes.append(f"{what}: {message}")
        print(f"perfbench: FAILED {what}: {message}", file=sys.stderr)

    gates = [("gradient check", lambda: gradient_check(vdd, args.seed, args.smoke))]
    if isinstance(wl, ScanExact):
        gates.append(("reference scan", wl.check_reference))
    for what, gate in gates:
        attempted += 1
        try:
            message = gate()
        except Exception:  # a crashing check is a failed check; keep measuring
            message = traceback.format_exc()
        if message:
            record_failure(what, message)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    ops: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        seed = derived_seed(args.seed, OP_STREAM, k)
        entry = {"index": k, "seed": seed, "steps": wl.steps}
        attempted += 1
        try:
            t0 = time.perf_counter()
            out = wl.op(seed)
            entry["raw_s"] = time.perf_counter() - t0
            before, cal_f = cal_f, cal.factor()
            entry["factor"] = (before + cal_f) / 2
            if tracer is not None:
                tracer.install()
                tracer.run_id = k
                try:
                    t0 = time.perf_counter()
                    out = wl.op(seed)
                    entry["traced_raw_s"] = time.perf_counter() - t0
                finally:
                    tracer.run_id = None
                    tracer.uninstall()
                before, cal_f = cal_f, cal.factor()
                entry["traced_factor"] = (before + cal_f) / 2
            message = wl.check(seed, out)
            if isinstance(wl, TrainExact):
                entry["epochs_to_target"] = wl.epochs_to_target(out)
        except Exception:  # a crashing operation is a failed operation
            message = traceback.format_exc()
        entry["ok"] = message is None
        if message is not None:
            record_failure(f"operation {k} (seed {seed})", message)
        ops.append(entry)
        k += 1
    attempted += 1
    message = wl.check_run(ops)
    if message:
        record_failure("run check", message)

    good = [op for op in ops if op["ok"]]
    metrics: dict[str, dict] = {}
    extra = {
        "setup_samples": len(setup_raw),
        "setup_raw_s": setup_raw,
        "operations": len(ops),
        "operations_ok": len(good),
        "steps_per_operation": wl.steps,
        "samples_per_step": wl.samples_per_step,
        "notes": notes,
    }

    if not args.trace:
        if good:
            rates = [op["steps"] / (op["raw_s"] * op["factor"]) for op in good]
            metrics["gradients_per_s"] = {"value": statistics.median(rates), "unit": "1/s"}
            extra["gradients_per_s_raw"] = statistics.median(op["steps"] / op["raw_s"] for op in good)
        metrics["setup_s"] = {"value": statistics.median(setup_ref), "unit": "s"}
        attempted += 1
        try:
            op_peak_mb = peak_allocation_mb(wl, derived_seed(args.seed, OP_STREAM, 0))
        except Exception:  # a crashing operation is a failed operation
            record_failure("memory pass", traceback.format_exc())
        else:
            metrics["peak_mem_mb"] = {"value": setup_rss_mb + op_peak_mb, "unit": "MB"}
            extra["setup_rss_mb"] = setup_rss_mb
    elif any("traced_factor" in op for op in ops):
        metrics.update(layer_metrics(wl, tracer, ops, setup_factor))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        extra["trace_notes"] = tracer.notes
        extra["spans"] = len(tracer.spans)
        tracer.write_csv(OUT / f"{stem}-spans.csv")
    run_facts = facts(args, extra)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(
        json.dumps({"facts": run_facts, "operations": ops, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"facts": run_facts}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def peak_allocation_mb(wl, seed: int) -> float:
    """Peak memory allocated while one operation runs (tracemalloc, untimed)."""
    import tracemalloc

    tracemalloc.start()
    try:
        wl.op(seed)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(wl, tracer, ops, setup_factor: float) -> dict[str, dict]:
    from tracing import LAYERS

    factor = {op["index"]: op["traced_factor"] for op in ops if "traced_factor" in op}
    steps = sum(op["steps"] for op in ops if "traced_factor" in op)
    calls = dict.fromkeys(LAYERS, 0)
    self_ref = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    for (layer, start, end, parent, run_id), own in zip(tracer.spans, tracer.self_times()):
        if run_id not in factor:  # the operation failed before its calibration
            continue
        calls[layer] += 1
        self_ref[layer] += own * factor[run_id]
        if parent is None:
            covered += end - start
    traced_wall = sum(op["traced_raw_s"] for op in ops if "traced_raw_s" in op)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_step"] = metric(calls[layer] / steps, "count")
        out[f"{layer}.self_s"] = metric(self_ref[layer] / steps, "s")
    apply_self = self_ref["hamiltonian.apply"]
    out["hamiltonian.apply.amp_terms_per_s"] = metric(
        tracer.work["hamiltonian.apply"] / apply_self if apply_self > 0 else 0.0, "1/s"
    )
    samples = steps * wl.samples_per_step
    out["vmc.amplitudes.levels_per_sample"] = metric(
        tracer.work["vmc.amplitudes"] / samples if samples else 0.0, "count"
    )
    out["hamiltonian.ground_energy_s"] = metric(wl.ground_energy_s * setup_factor, "s")
    outside, total = tracer.folds
    out["optimize.fold_fraction"] = metric(outside / total if total else 0.0, "ratio")
    reached = [op["epochs_to_target"] for op in ops if "epochs_to_target" in op]
    if reached:  # unconverged runs count as one epoch past the budget
        first = [wl.steps + 1 if e is None else e for e in reached[:MIN_OPS]]
        out["optimize.epochs_to_target"] = metric(statistics.median(first), "count")
        converged = sum(e is not None for e in reached) / len(reached)
        out["optimize.converged_fraction"] = metric(converged, "ratio")
    else:
        out["optimize.epochs_to_target"] = metric(0, "count")
        out["optimize.converged_fraction"] = metric(0.0, "ratio")
    overheads = [
        (op["traced_raw_s"] * op["traced_factor"] - op["raw_s"] * op["factor"]) / op["steps"]
        for op in ops
        if "traced_raw_s" in op
    ]
    out["trace.overhead_s"] = metric(statistics.median(overheads) if overheads else 0.0, "s")
    out["trace.coverage"] = metric(covered / traced_wall if traced_wall else 0.0, "ratio")
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after the other; combined result last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes: checks only, not timings")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # One BLAS thread unless the caller chose otherwise (set before numpy loads,
    # and inherited by child processes): on a 2-CPU host a second OpenBLAS
    # thread slowed ground_energy and the VMC epoch and widened the spread.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")

    if args.setup_probe:
        start = time.perf_counter()
        WORKLOADS[args.workload](load_vdd(), args.smoke)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
