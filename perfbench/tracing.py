"""Layer spans for the traced benchmark run, recorded from outside `vdd`.

Each layer is entered through module-level names (functions, or the
`_LevelTables` class).  `Tracer.install` swaps every name listed in
`HOOKS` for a wrapper that records a span (name, start, end, parent span,
run id) while a run id is set, and `Tracer.uninstall` puts the originals
back.  A name missing from the program is reported as absent with a note;
the layer then shows 0 calls and its time moves out of `trace.coverage`.
"""

from __future__ import annotations

import csv
import functools
import importlib
import math
import time
from dataclasses import dataclass
from typing import Callable


def _apply_work(h, v, *args, **kwargs):
    """Amplitude-term products of one H|v> call: terms x 2^n."""
    return len(h.terms) << h.num_qubits


def _amplitude_work(tables, bits, *args, **kwargs):
    """Levels walked by one batched amplitude call: rows x n."""
    return int(bits.shape[0]) * int(bits.shape[1])


def _materialize_folds(g, theta, mode, *args, **kwargs):
    """(magnitude entries outside [0, pi/2], magnitude entries) of one call."""
    mags = theta[0::3]
    if mode != "trig":
        return 0, len(mags)
    return int(((mags < 0.0) | (mags > math.pi / 2)).sum()), len(mags)


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str
    work: Callable | None = None  # int of work units from the call's arguments
    folds: Callable | None = None  # (outside, total) magnitude entries


HOOKS = (
    Hook("graph.validate", "vdd.exact", "validate"),
    Hook("exact.compile", "vdd.exact", "_LevelTables"),
    Hook("exact.compile", "vdd.vmc", "_LevelTables"),
    Hook("exact.forward", "vdd.exact", "_forward"),
    Hook("exact.gradient", "vdd.optimize", "exact_gradient"),
    Hook("exact.gradient", "vdd.experiments", "exact_gradient"),
    Hook("exact.energy", "vdd.optimize", "exact_energy"),
    Hook("hamiltonian.apply", "vdd.hamiltonian", "apply_to_vector", work=_apply_work),
    Hook("vmc.sample", "vdd.vmc", "sample"),
    Hook("vmc.local_values", "vdd.vmc", "_batch_local_values"),
    Hook("vmc.log_derivs", "vdd.vmc", "_batch_log_derivs"),
    Hook("vmc.gradient", "vdd.vmc", "vmc_gradient"),
    Hook("vmc.amplitudes", "vdd.vmc", "_batch_amplitudes", work=_amplitude_work),
    Hook("optimize.adam", "vdd.optimize", "adam_step"),
    Hook("optimize.flatten", "vdd.optimize", "_flatten"),
    Hook("optimize.materialize", "vdd.optimize", "_materialize", folds=_materialize_folds),
    Hook("ansatz.init", "vdd.optimize", "init_params"),
    Hook("ansatz.init", "vdd.experiments", "init_params"),
    Hook("experiments.variance_scan", "vdd.experiments", "variance_scan"),
)

LAYERS = tuple(dict.fromkeys(h.layer for h in HOOKS))


class Tracer:
    """In-memory span log; spans are recorded only while `run_id` is set."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index, run id]
        self.work: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.folds = [0, 0]  # magnitude entries outside [0, pi/2], all entries
        self.notes: list[str] = []
        self.run_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, hook: Hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            if hook.work is not None:
                try:
                    self.work[hook.layer] += hook.work(*args, **kwargs)
                except (TypeError, AttributeError, IndexError):
                    self._note(f"{hook.layer}: work not measurable from the call's arguments")
            if hook.folds is not None:
                try:
                    outside, total = hook.folds(*args, **kwargs)
                    self.folds[0] += outside
                    self.folds[1] += total
                except (TypeError, AttributeError, IndexError):
                    self._note(f"{hook.layer}: fold count not measurable from the call's arguments")
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([hook.layer, time.perf_counter(), None, parent, self.run_id])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def install(self) -> None:
        for hook in HOOKS:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self._note(f"{hook.layer}: module {hook.module} absent")
                continue
            original = getattr(module, hook.attr, None)
            if original is None:
                self._note(f"{hook.layer}: {hook.module}.{hook.attr} absent")
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "layer", "start_s", "end_s", "parent", "run_id"])
            for index, (layer, start, end, parent, run_id) in enumerate(self.spans):
                writer.writerow(
                    [index, layer, repr(start), repr(end), "" if parent is None else parent, run_id]
                )
