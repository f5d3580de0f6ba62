"""Command-line entry point.

Subcommands, one entry each in ``_COMMANDS``: build | validate | amplitude |
statevector | eigen | sample | train | variance-scan | g-sweep | emit-svg.

Every option has one source of truth: an explicit flag wins over a value
in the ``--config`` file (a JSON object of option names), which wins over
the documented default.  Flags and config values are read by one parser
per kind: a config value is JSON of the option's kind or the flag's text,
list items must be of the item kind, and a value outside an option's
choices is refused from either source.  Commands that write files create
them under ``--output-dir`` and echo the fully resolved options, with the
Python, numpy and scipy versions, the CPU count and the BLAS thread
variables OMP_NUM_THREADS and OPENBLAS_NUM_THREADS, to
``resolved_config.json`` there; on failure, files created by the run are
removed.  Randomized commands draw a seed when none is given and record
it in the resolved config.

Exit codes: 0 success; 2 any ConfigError, raised here or by the library
check that finds the bad value: a flag or config value, an unknown config
key, a malformed input document (ParseError) or an over-capacity request
(CapacityError), both ConfigErrors; 1 runtime failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ansatz import ANSATZ_KINDS, build_ansatz, init_params, parse_init_scheme
from .exact import PARAM_MODES, to_state_vector
from .experiments import VarianceScanConfig, g_sweep, variance_scan
from .graph import amplitude, deserialize, serialize, validate
from .hamiltonian import BOUNDARIES, MODELS, ModelSpec, build_model, ground_energy
from .optimize import (
    GRADIENT_SOURCES,
    LOSSES,
    AdamConfig,
    SgdConfig,
    TrainConfig,
    train,
)
from .state import ConfigError, _write_csv
from .vmc import _write_samples, batch_to_csv, sample, sample_batch

__all__ = ["run", "main", "emit_svg"]


# ---------------------------------------------------------------------------
# option plumbing: flag > config file > default

_LIST_KINDS = ("ints", "floats", "strs")
# the exact types a parsed value may have: a bool is not an int here
_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


@dataclass(frozen=True)
class Opt:
    name: str  # underscore form; the flag is --with-dashes
    kind: str  # int | float | str | bool | ints | floats | strs
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple | None = None

    def parse(self, value):
        """This option's value from a flag's text or a config file's JSON.

        Text is split at commas for a list kind and read as a number for a
        numeric one.  Otherwise the value must be of the kind already: a
        list of items of the item kind, an int for a float, and a bool is
        not a number.  Raises ArgumentTypeError, which argparse reports
        against the flag.
        """
        kind = self.kind
        if kind in _LIST_KINDS:
            if isinstance(value, str):
                value = [part.strip() for part in value.split(",") if part.strip()]
            if not isinstance(value, list):
                raise argparse.ArgumentTypeError(f"expected {kind}, got {value!r}")
            return tuple(Opt(self.name, kind[:-1]).parse(item) for item in value)
        if isinstance(value, str) and kind in ("int", "float"):
            try:
                value = int(value) if kind == "int" else float(value)
            except ValueError:
                raise argparse.ArgumentTypeError(f"expected {kind}, got {value!r}") from None
        if type(value) not in _TYPES[kind]:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise argparse.ArgumentTypeError(f"expected one of {self.choices}, got {value!r}")
        return float(value) if kind == "float" else value


_CONFIG = Opt("config", "str", None, "JSON file of option values (flags override it)")
_OUTPUT_DIR = Opt("output_dir", "str", ".", "directory for produced files")

_MODEL_OPTS = (
    Opt("model", "str", None, "hamiltonian family", choices=MODELS),
    Opt("n", "int", None, "number of qubits"),
    Opt("g", "float", ModelSpec.g, "transverse-field strength (tfim)"),
    Opt("jx", "float", ModelSpec.jx, "XX coupling (heisenberg)"),
    Opt("jy", "float", ModelSpec.jy, "YY coupling (heisenberg)"),
    Opt("jz", "float", ModelSpec.jz, "ZZ coupling (heisenberg)"),
    Opt("boundary", "str", ModelSpec.boundary, "chain boundary", choices=BOUNDARIES),
)

_ANSATZ = Opt("ansatz", "str", TrainConfig.ansatz, "graph layout", choices=ANSATZ_KINDS)


def _param_mode(default: str) -> Opt:
    return Opt("param_mode", "str", default, "magnitude parameterization", choices=PARAM_MODES)


def _read_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file: {exc}") from None


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flags, config file and defaults into one options dict."""
    command = _COMMANDS[args.command]
    opts = {opt.name: opt for opt in command.options if opt.name != "config"}
    resolved = {name: opt.default for name, opt in opts.items()}
    if args.config is not None:
        doc = _read_config(args.config)
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in opts:
                raise ConfigError(f"unknown config key {key!r} for {args.command}")
            try:
                resolved[key] = opts[key].parse(value)
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from None
    for name in opts:
        if getattr(args, name) is not None:
            resolved[name] = getattr(args, name)

    if command.seed is not None and resolved[command.seed] is None:
        resolved[command.seed] = int.from_bytes(os.urandom(4), "big")
        print(f"{command.seed} {resolved[command.seed]} (generated)", file=sys.stderr)
    for opt in opts.values():
        if opt.required and resolved[opt.name] is None:
            raise ConfigError(f"missing required option {opt.name!r}")
    return resolved


class _Outputs:
    """Files created by this run; discarded together if the run fails."""

    def __init__(self, output_dir: str):
        self.dir = output_dir
        self.created: list[str] = []
        os.makedirs(output_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.dir, name)
        self.created.append(full)
        return full

    def discard(self) -> None:
        for full in self.created:
            try:
                os.unlink(full)
            except OSError:
                pass


def _environment() -> dict:
    """The interpreter, the numeric libraries, the CPU count and the BLAS
    thread variables (None when unset) a run had."""
    import platform

    import scipy

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "cpu_count": os.cpu_count()}
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):  # they size the BLAS pool
        env[name] = os.environ.get(name)
    return env


def _write_resolved(outputs: _Outputs, command: str, cfg: dict) -> None:
    doc = {"command": command}
    doc.update({k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())})
    doc["environment"] = _environment()
    with open(outputs.path("resolved_config.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _read_graph(path: str, validate_graph: bool = True):
    try:
        with open(path) as fh:
            return deserialize(fh.read(), validate_graph=validate_graph)
    except OSError as exc:
        raise ConfigError(f"cannot read vdd file: {exc}") from None


def _parse_bit_text(text: str) -> tuple[int, ...]:
    if not text or set(text) - {"0", "1"}:
        raise ConfigError(f"bits must be a nonempty 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def _model_spec(cfg: dict, n: int | None = None) -> ModelSpec:
    if cfg.get("model") is None:
        raise ConfigError("missing required option 'model'")
    if n is None:
        n = cfg.get("n")
    if n is None:
        raise ConfigError("missing required option 'n'")
    return ModelSpec(
        cfg["model"], n, g=cfg["g"],
        jx=cfg["jx"], jy=cfg["jy"], jz=cfg["jz"], boundary=cfg["boundary"],
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(cfg: dict, outputs: _Outputs) -> None:
    scheme = parse_init_scheme(cfg["init"], seed=cfg["seed"])
    g = init_params(build_ansatz(cfg["ansatz"], cfg["n"]), scheme)
    path = outputs.path(cfg["out"])
    with open(path, "w") as fh:
        fh.write(serialize(g))
    print(path)


def _cmd_validate(cfg: dict, outputs: None) -> int:
    problems = validate(_read_graph(cfg["vdd"], validate_graph=False))
    if not problems:
        print("valid")
        return 0
    for problem in problems:
        print(problem)
    return 1


def _cmd_amplitude(cfg: dict, outputs: None) -> None:
    g = _read_graph(cfg["vdd"])
    bits = _parse_bit_text(cfg["bits"])
    if len(bits) != g.num_qubits:
        raise ConfigError(f"bits has length {len(bits)} but the graph has {g.num_qubits} qubits")
    a = amplitude(g, bits)
    print(f"modulus {abs(a)!r}")
    print(f"phase {cmath.phase(a)!r}")


def _cmd_statevector(cfg: dict, outputs: _Outputs) -> None:
    g = _read_graph(cfg["vdd"])
    sv = to_state_vector(g)
    path = outputs.path(cfg["out"])
    n = g.num_qubits
    _write_csv(path, ["index", "bitstring", "amplitude_re", "amplitude_im"],
               ((idx, format(idx, f"0{n}b"), re, im)
                for idx, (re, im) in enumerate(zip(sv.amps.real.tolist(), sv.amps.imag.tolist()))))
    print(path)


def _cmd_eigen(cfg: dict, outputs: None) -> None:
    e0, _ = ground_energy(build_model(_model_spec(cfg)))
    print(repr(e0))


def _cmd_sample(cfg: dict, outputs: _Outputs) -> None:
    g = _read_graph(cfg["vdd"])
    path = outputs.path(cfg["out"])
    if cfg.get("model") is not None:
        spec = _model_spec(cfg, n=g.num_qubits)
        batch = sample_batch(g, build_model(spec), cfg["count"], seed=cfg["seed"])
        batch_to_csv(batch, path)
    else:
        _write_samples(path, sample(g, cfg["count"], seed=cfg["seed"]))
    print(path)


def _cmd_train(cfg: dict, outputs: _Outputs) -> None:
    if cfg["optimizer"] == "adam":
        opt = AdamConfig(lr=cfg["lr"], beta1=cfg["beta1"], beta2=cfg["beta2"], eps=cfg["eps"])
    else:
        opt = SgdConfig(lr=cfg["lr"])
    init = parse_init_scheme(cfg["init"], seed=cfg["seed"]) if cfg["init"] else None
    config = TrainConfig(
        ansatz=cfg["ansatz"],
        model=_model_spec(cfg),
        optimizer=opt,
        epochs=cfg["epochs"],
        seed=cfg["seed"],
        gradient_source=cfg["gradient_source"],
        batch_size=cfg["batch_size"],
        param_mode=cfg["param_mode"],
        loss=cfg["loss"],
        e0=cfg["e0"],
        init=init,
    )
    trace = train(config)
    trace.to_csv(outputs.path("trace.csv"))
    with open(outputs.path("final_vdd.json"), "w") as fh:
        fh.write(serialize(trace.graph))
    final = trace.final
    rel = "" if final.relative_error is None else f" relative_error {final.relative_error!r}"
    print(f"epoch {final.epoch} loss {final.loss!r}{rel}")


def _cmd_variance_scan(cfg: dict, outputs: _Outputs) -> None:
    scan_cfg = VarianceScanConfig(
        model=cfg["model"],
        n_values=cfg["n_values"],
        tracked_params=cfg["tracked"],
        num_seeds=cfg["num_seeds"],
        base_seed=cfg["base_seed"],
        g=cfg["g"], jx=cfg["jx"], jy=cfg["jy"], jz=cfg["jz"],
        boundary=cfg["boundary"],
        ansatz=cfg["ansatz"],
        param_mode=cfg["param_mode"],
    )
    result = variance_scan(scan_cfg)
    result.rows_to_csv(outputs.path("variance_scan.csv"))
    result.fits_to_csv(outputs.path("variance_fits.csv"))
    for note in result.notices:
        print(note, file=sys.stderr)
    print(os.path.join(outputs.dir, "variance_scan.csv"))


def _cmd_g_sweep(cfg: dict, outputs: _Outputs) -> None:
    result = g_sweep(
        cfg["g_values"],
        n=cfg["n"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
        lr=cfg["lr"],
        ansatz=cfg["ansatz"],
        param_mode=cfg["param_mode"],
    )
    result.to_csv(outputs.path("g_sweep.csv"))
    result.benchmark_to_csv(outputs.path("dimer_benchmark.csv"))
    for row in result.rows:
        print(f"g {row.g!r} relative_error {row.relative_error!r}")


# ---------------------------------------------------------------------------
# SVG emission


def emit_svg(csv_path: str, x_column: str, y_column: str, log_y: bool = False) -> str:
    """Single-series SVG line chart from two numeric CSV columns.

    Deterministic for fixed input; nonpositive and non-finite y points are
    dropped in log mode.  Missing columns, empty tables, non-numeric cells
    and other non-finite values raise ConfigError.
    """
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            for col in (x_column, y_column):
                if col not in fields:
                    raise ConfigError(f"missing column {col!r} in {csv_path}")
            xs, ys = [], []
            for row in reader:
                try:
                    x = float(row[x_column])
                    y = float(row[y_column])
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"non-numeric value {row[x_column]!r}/{row[y_column]!r} "
                        f"in columns {x_column!r}/{y_column!r}"
                    ) from None
                if not math.isfinite(x) or not (log_y or math.isfinite(y)):
                    raise ConfigError(
                        f"non-finite value {row[x_column]!r}/{row[y_column]!r} "
                        f"in columns {x_column!r}/{y_column!r}"
                    )
                xs.append(x)
                ys.append(y)
    except OSError as exc:
        raise ConfigError(f"cannot read csv file: {exc}") from None
    if not xs:
        raise ConfigError(f"no data rows in {csv_path}")
    if log_y:
        pairs = [(x, math.log10(y)) for x, y in zip(xs, ys) if y > 0 and math.isfinite(y)]
        if not pairs:
            raise ConfigError(f"no positive values in column {y_column!r} for log scale")
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]

    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    span_x = width - left - right
    span_y = height - top - bottom

    def sx(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * span_x

    def sy(y: float) -> float:
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * span_y

    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    y_name = f"log10({y_column})" if log_y else y_column
    fmt = lambda v: f"{v:.6g}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" y2="{height - bottom}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>',
        f'<text x="{left}" y="{height - bottom + 18}" font-size="12" text-anchor="middle">'
        f"{fmt(x_lo)}</text>",
        f'<text x="{width - right}" y="{height - bottom + 18}" font-size="12" '
        f'text-anchor="middle">{fmt(x_hi)}</text>',
        f'<text x="{left - 6}" y="{height - bottom}" font-size="12" text-anchor="end">'
        f"{fmt(y_lo)}</text>",
        f'<text x="{left - 6}" y="{top + 10}" font-size="12" text-anchor="end">{fmt(y_hi)}</text>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12}" font-size="14" '
        f'text-anchor="middle">{x_column}</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">'
        f"{y_name}</text>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def _cmd_emit_svg(cfg: dict, outputs: _Outputs) -> None:
    svg = emit_svg(cfg["csv"], cfg["x"], cfg["y"], log_y=bool(cfg["log_y"]))
    path = outputs.path(cfg["out"])
    with open(path, "w") as fh:
        fh.write(svg)
    print(path)


# ---------------------------------------------------------------------------
# dispatch


@dataclass(frozen=True)
class Command:
    run: Callable[[dict, _Outputs | None], int | None]  # the exit code; None for 0
    options: tuple[Opt, ...]
    seed: str | None = None  # the option a randomized run draws when it is omitted
    writes: bool = False  # takes --output-dir, creates it and its resolved_config.json

    def __post_init__(self):
        common = (_CONFIG, _OUTPUT_DIR) if self.writes else (_CONFIG,)
        object.__setattr__(self, "options", common + self.options)


_COMMANDS = {
    "build": Command(_cmd_build, (
        _ANSATZ,
        Opt("n", "int", None, "number of qubits", required=True),
        Opt("init", "str", "balanced", 'parameter init: "uniform", "balanced" or "basis:<bits>"'),
        Opt("seed", "int", None, "seed for uniform init (generated and recorded if omitted)"),
        Opt("out", "str", "vdd.json", "output file name under output-dir"),
    ), seed="seed", writes=True),
    "validate": Command(_cmd_validate, (
        Opt("vdd", "str", None, "graph document to check", required=True),
    )),
    "amplitude": Command(_cmd_amplitude, (
        Opt("vdd", "str", None, "graph document", required=True),
        Opt("bits", "str", None, "bit string, qubit 1 first (e.g. 001)", required=True),
    )),
    "statevector": Command(_cmd_statevector, (
        Opt("vdd", "str", None, "graph document", required=True),
        Opt("out", "str", "statevector.csv", "output file name under output-dir"),
    ), writes=True),
    "eigen": Command(_cmd_eigen, _MODEL_OPTS),
    "sample": Command(_cmd_sample, (
        Opt("vdd", "str", None, "graph document", required=True),
        Opt("count", "int", 1000, "number of samples"),
        Opt("seed", "int", None, "sampling seed (generated and recorded if omitted)"),
        Opt("out", "str", "samples.csv", "output file name under output-dir"),
    ) + _MODEL_OPTS[:1] + _MODEL_OPTS[2:], seed="seed", writes=True),  # a model adds local values
    "train": Command(_cmd_train, _MODEL_OPTS + (
        _ANSATZ,
        Opt("optimizer", "str", "adam", "update rule", choices=("adam", "sgd")),
        Opt("lr", "float", AdamConfig.lr, "learning rate"),
        Opt("beta1", "float", AdamConfig.beta1, "adam first-moment decay"),
        Opt("beta2", "float", AdamConfig.beta2, "adam second-moment decay"),
        Opt("eps", "float", AdamConfig.eps, "adam denominator floor"),
        Opt("epochs", "int", TrainConfig.epochs, "gradient steps"),
        Opt("seed", "int", None, "init/sampling seed (generated and recorded if omitted)"),
        _param_mode(TrainConfig.param_mode),
        Opt("gradient_source", "str", TrainConfig.gradient_source, "gradient engine",
            choices=GRADIENT_SOURCES),
        Opt("batch_size", "int", None, "samples per epoch (vmc)"),
        Opt("loss", "str", TrainConfig.loss, "objective: <H> - E0 or <H>", choices=LOSSES),
        Opt("e0", "float", None, "reference ground energy (skips the dense eigensolve)"),
        Opt("init", "str", None, 'parameter init override (default "uniform" at --seed)'),
    ), seed="seed", writes=True),
    "variance-scan": Command(_cmd_variance_scan, (
        replace(_MODEL_OPTS[0], required=True),
    ) + _MODEL_OPTS[2:] + (
        Opt("n_values", "ints", tuple(range(2, 13)), "comma-separated system sizes"),
        Opt("tracked", "strs", ("r1", "omega3", "phi-1"), "comma-separated parameter labels"),
        Opt("num_seeds", "int", VarianceScanConfig.num_seeds, "random initializations per grid cell"),
        Opt("base_seed", "int", None, "scan seed (generated and recorded if omitted)"),
        _param_mode(VarianceScanConfig.param_mode),
        _ANSATZ,
    ), seed="base_seed", writes=True),
    "g-sweep": Command(_cmd_g_sweep, (
        Opt("g_values", "floats", (10.0, 20.0, 40.0), "comma-separated field strengths"),
        Opt("n", "int", 8, "number of qubits"),
        Opt("epochs", "int", TrainConfig.epochs, "gradient steps per field value"),
        Opt("lr", "float", AdamConfig.lr, "learning rate"),
        Opt("seed", "int", None, "training seed (generated and recorded if omitted)"),
        _ANSATZ,
        _param_mode(TrainConfig.param_mode),
    ), seed="seed", writes=True),
    "emit-svg": Command(_cmd_emit_svg, (
        Opt("csv", "str", None, "input table", required=True),
        Opt("x", "str", None, "x column name", required=True),
        Opt("y", "str", None, "y column name", required=True),
        Opt("log_y", "bool", False, "plot log10 of y (nonpositive points dropped)"),
        Opt("out", "str", "chart.svg", "output file name under output-dir"),
    ), writes=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdd",
        description="Variational decision-diagram toolkit: build and inspect "
        "diagrams, diagonalize small chains, sample, train, and reproduce "
        "the gradient-variance and field-sweep experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        for opt in command.options:
            flag = "--" + opt.name.replace("_", "-")
            if opt.kind == "bool":
                p.add_argument(flag, action="store_const", const=True, help=opt.help)
            else:  # choices only list them in the help: parse has checked them
                p.add_argument(flag, type=opt.parse, choices=opt.choices, help=opt.help)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    command = _COMMANDS[args.command]
    outputs = None
    try:
        cfg = _resolve(args)
        if command.writes:
            outputs = _Outputs(cfg["output_dir"])
            _write_resolved(outputs, args.command, cfg)
        return command.run(cfg, outputs) or 0
    except ConfigError as exc:
        if outputs is not None:
            outputs.discard()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        if outputs is not None:
            outputs.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
