"""Spans recorded from outside the package.

`Tracer.install` replaces public functions with timing wrappers at the
module attribute where their callers look them up, so the package itself is
unchanged. Each call leaves one span (name, start, end, parent, run id,
value); spans stay in memory and are written out once the run is over. A
target the package no longer has is skipped, which reads as zero calls.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute) pairs, named where the caller resolves them
TARGETS = (
    ("mapsched.harness", "plant_step"),
    ("mapsched.harness", "imm_step"),
    ("mapsched.harness", "kf_predict"),
    ("mapsched.harness", "kf_update"),
    ("mapsched.harness", "maps_gain"),
    ("mapsched.harness", "control_input"),
    ("mapsched.harness", "synthesize_vertex_gains"),
    ("mapsched.harness", "build_vertex_set"),
    ("mapsched.harness", "FrictionSchedule.at"),
    ("mapsched.harness", "ScenarioSpec.reference_state"),
    ("mapsched.config", "MotorConfig.friction"),
    ("mapsched.control", "solve_dare"),
    ("mapsched.stability", "find_common_lyapunov"),
    ("mapsched.stability", "verify_convex_stability"),
    ("mapsched.cli", "main"),
    ("mapsched.cli", "run_scenario"),
    ("mapsched.cli", "design_from_motor"),
    ("mapsched.cli", "certify"),
    ("mapsched.cli", "compute_metrics"),
    ("mapsched.cli", "write_trace_csv"),
    ("mapsched.cli", "write_plot_csv"),
    ("mapsched.cli", "write_metrics_json"),
)

# the number a span keeps from its call's result
VALUES = {
    "solve_dare": lambda result: getattr(result, "iterations", None),
    "find_common_lyapunov": lambda result: getattr(result, "rounds", None),
}


def _resolve(module_name: str, attr: str):
    """(owner, final attribute name) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Span recorder for one interpreter; `run_id` labels the phase."""

    def __init__(self):
        self.spans = []
        self.run_id = "setup"
        self._stack = []
        self._saved = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        value_of = VALUES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, self.run_id, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            value = value_of(result) if value_of is not None else None
            spans[index] = (name, start, end, parent, self.run_id, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, attr in targets:
            found = _resolve(module_name, attr)
            if found is None:
                continue
            owner, last = found
            original = getattr(owner, last)
            self._saved.append((owner, last, original))
            setattr(owner, last, self.wrap(original, attr))

    def uninstall(self) -> None:
        while self._saved:
            owner, last, original = self._saved.pop()
            setattr(owner, last, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, value in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{run_id}\t"
                         f"{'' if value is None else value}\n")


def read_spans(path) -> list:
    spans = []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent, run_id, value = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(parent), run_id,
                          int(value) if value else None))
    return spans


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans, run_id=None) -> dict:
    """Per span name: calls, durations, summed self time and summed values,
    over the spans of one run id (all when None)."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "durations": [], "self": 0.0, "value": 0})
    for span, own in zip(spans, selfs):
        name, start, end, _, rid, value = span
        if run_id is not None and rid != run_id:
            continue
        row = table[name]
        row["calls"] += 1
        row["durations"].append(end - start)
        row["self"] += own
        if value is not None:
            row["value"] += value
    return table
