"""In-process tracing of ratdiff's public functions, from outside the package.

Each traced function is rebound, for the duration of a `traced()` block,
in every ratdiff module namespace that holds it, so calls between
modules (cli -> scan -> analysis -> core) pass through the wrapper.
Spans are kept in memory as [name, start, end, parent, note] and turned
into per-layer metrics afterwards.  The program's code is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _arguments(fn):
    """Map a call's args to the function's parameter names, defaults included."""
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _note_emit(fn):
    return lambda args, kwargs, text: len(text.encode()) if text is not None else 0


def _note_scan(fn):
    arguments = _arguments(fn)

    def note(args, kwargs, report):
        budget = arguments(args, kwargs)["budget"]
        return (report.samples if report else 0), budget
    return note


def _note_classify(fn):
    return lambda args, kwargs, result: result.verdict if result else None


def _note_cycle(fn):
    return lambda args, kwargs, report: report is not None


def _note_lyapunov(fn):
    arguments = _arguments(fn)

    def note(args, kwargs, estimate):
        bound = arguments(args, kwargs)
        return bound.get("n_transient", 0), bound.get("n_sample", 0)
    return note


def _note_iterate(fn):
    return lambda args, kwargs, orbit: (
        (len(orbit.points) - 2, orbit.status) if orbit else (0, None))


# (module, function, span name, note maker).  A note holds the counts a
# span carries, taken from the call's arguments and result.
TARGETS = [
    ("ratdiff.cli", "main", "cli.main", None),
    ("ratdiff.cli", "parse_args", "cli.parse_args", None),
    ("ratdiff.cli", "execute", "cli.execute", None),
    ("ratdiff.serialize", "emit", "serialize.emit", _note_emit),
    ("ratdiff.scan", "scan_margin", "scan.scan_margin", _note_scan),
    ("ratdiff.scan", "classification_grid", "scan.classification_grid", None),
    ("ratdiff.stability", "clark_margin_at", "stability.clark_margin_at", None),
    ("ratdiff.analysis", "classify_orbit", "analysis.classify_orbit", _note_classify),
    ("ratdiff.analysis", "detect_convergence", "analysis.detect_convergence", None),
    ("ratdiff.analysis", "detect_cycle", "analysis.detect_cycle", _note_cycle),
    ("ratdiff.analysis", "lyapunov_max", "analysis.lyapunov_max", _note_lyapunov),
    ("ratdiff.core", "iterate", "core.iterate", _note_iterate),
]

VERDICTS = ("converges", "periodic", "unbounded", "chaotic", "singular", "undetermined")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if note is not None:
                    span[4] = note(args, kwargs, result)
        return traced

    @contextmanager
    def traced(self):
        """Rebind every target in every ratdiff module that imported it."""
        rebound = []
        try:
            for module_name, attr, name, make_note in TARGETS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self.wrap(name, original, make_note and make_note(original))
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").partition(".")[0] == "ratdiff"
                            and vars(module).get(attr) is original):
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)



def write_spans(spans: list[list], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "note"], "spans": spans}, fh)


def _quantile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    A span's self time is its duration minus the time its direct
    children cover; children never overlap, the program being serial.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    notes: dict[str, list] = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        durations.setdefault(name, []).append(end - start)
        notes.setdefault(name, []).append(note)

    def calls(name):
        return len(durations.get(name, ()))

    def per_call_ms(name):
        return 1e3 * self_s.get(name, 0.0) / calls(name) if calls(name) else 0.0

    m: dict[str, float] = {}
    iterate = [n for n in notes.get("core.iterate", ()) if n]
    steps = sum(s for s, _ in iterate)
    m["core.iterate.calls"] = calls("core.iterate")
    m["core.iterate.self_s"] = self_s.get("core.iterate", 0.0)
    m["core.iterate.steps"] = steps
    m["core.iterate.escaped"] = sum(st == "escaped" for _, st in iterate)
    m["core.iterate.singular"] = sum(st == "singular" for _, st in iterate)
    m["core.iterate.per_call_ms"] = per_call_ms("core.iterate")
    m["core.iterate.ms_per_1e5_steps"] = (
        1e8 * m["core.iterate.self_s"] / steps if steps else 0.0)

    classify = durations.get("analysis.classify_orbit", [])
    m["analysis.classify_orbit.calls"] = len(classify)
    m["analysis.classify_orbit.self_s"] = self_s.get("analysis.classify_orbit", 0.0)
    m["analysis.classify_orbit.p50_s"] = _quantile(classify, 50)
    m["analysis.classify_orbit.p90_s"] = _quantile(classify, 90)
    m["analysis.detect_convergence.self_s"] = self_s.get("analysis.detect_convergence", 0.0)
    hits = notes.get("analysis.detect_cycle", [])
    m["analysis.detect_cycle.calls"] = len(hits)
    m["analysis.detect_cycle.self_s"] = self_s.get("analysis.detect_cycle", 0.0)
    m["analysis.detect_cycle.per_call_ms"] = per_call_ms("analysis.detect_cycle")
    m["analysis.detect_cycle.hit_ratio"] = sum(map(bool, hits)) / len(hits) if hits else 0.0

    # transient steps that lyapunov_max iterates again although the
    # sibling iterate call inside the same classify_orbit already did
    iterated = {p: n[0] for name, _, _, p, n in spans if name == "core.iterate" and n}
    lyap_steps = replayed = 0
    for name, _, _, parent, note in spans:
        if name == "analysis.lyapunov_max" and note:
            transient, sample = note
            lyap_steps += transient + sample
            if parent >= 0 and spans[parent][0] == "analysis.classify_orbit":
                replayed += min(transient, iterated.get(parent, 0))
    m["analysis.lyapunov_max.calls"] = calls("analysis.lyapunov_max")
    m["analysis.lyapunov_max.self_s"] = self_s.get("analysis.lyapunov_max", 0.0)
    m["analysis.lyapunov_max.steps"] = lyap_steps
    m["analysis.lyapunov_max.per_call_ms"] = per_call_ms("analysis.lyapunov_max")
    m["analysis.lyapunov_max.replayed_ratio"] = replayed / lyap_steps if lyap_steps else 0.0
    verdicts = notes.get("analysis.classify_orbit", [])
    for kind in VERDICTS:
        m[f"analysis.verdict.{kind}"] = verdicts.count(kind)

    m["stability.clark_margin_at.calls"] = calls("stability.clark_margin_at")
    m["stability.clark_margin_at.self_s"] = self_s.get("stability.clark_margin_at", 0.0)
    m["scan.scan_margin.self_s"] = self_s.get("scan.scan_margin", 0.0)
    scans = [n for n in notes.get("scan.scan_margin", ()) if n]
    budget = sum(b for _, b in scans)
    m["scan.accept_ratio"] = sum(s for s, _ in scans) / budget if budget else 0.0
    m["scan.classification_grid.self_s"] = self_s.get("scan.classification_grid", 0.0)
    m["serialize.emit.self_s"] = self_s.get("serialize.emit", 0.0)
    m["serialize.emit.bytes"] = sum(n or 0 for n in notes.get("serialize.emit", ()))
    m["cli.parse_args.self_s"] = self_s.get("cli.parse_args", 0.0)
    m["cli.execute.self_s"] = self_s.get("cli.execute", 0.0)
    layers = sum(v for k, v in self_s.items() if k.startswith(("core.", "analysis.")))
    m["trace.core_analysis_share"] = layers / wall_s if wall_s else 0.0
    return m
