"""Spans and counters for the benchmark's traced runs.

The tracer wraps library functions from outside: it replaces every binding of
a listed function in the ``nanolab.*`` modules (``nanolab.energy.bond_graph``
and ``nanolab.stability.bond_graph`` alike) with a wrapper that records a
span, so calls made inside the library nest as child spans and no source file
is edited.  Spans stay in memory; ``summarize`` turns them into per-function
statistics after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int = 0
    end_ns: int = 0
    parent: "Span | None" = None
    counters: dict | None = None


class Tracer:
    """Records nested spans of one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, func, count=None):
        """Wrapper of func that records a span named name.

        count(args, kwargs, result) returns extra counters for the span.
        """

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if count is not None:
                span.counters = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, targets: dict, package: str = "nanolab"):
    """Wrap each listed function wherever a module of package binds it.

    targets maps "module.function" (module relative to package) to a counter
    function or None.  Returns (missing, uninstall): the names that could not
    be found, so a renamed or deleted function is reported instead of showing
    zero calls, and a function that puts the original bindings back.
    """
    missing = []
    replaced = []
    modules = [m for name, m in sorted(sys.modules.items()) if m is not None and (name == package or name.startswith(package + "."))]
    for target, count in targets.items():
        mod_name, func_name = target.rsplit(".", 1)
        try:
            original = getattr(importlib.import_module(f"{package}.{mod_name}"), func_name)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        wrapper = tracer.wrap(target, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, original))

    def uninstall():
        for module, attr, original in replaced:
            setattr(module, attr, original)

    return missing, uninstall


def _quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolated quantile of an already sorted list."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(spans: list[Span]) -> dict:
    """Per-name statistics of a span list.

    Returns {"functions": {name: {"calls", "self_s", "total_s", "p50_us",
    "p90_us", <counter>...}}, "covered_s": time covered by root spans}.  A
    span's self time is its duration minus the durations of its direct
    children; p50_us and p90_us are quantiles of whole-span durations.
    """
    child_ns: dict[int, int] = {}
    covered_ns = 0
    for span in spans:
        dur = span.end_ns - span.start_ns
        if span.parent is None:
            covered_ns += dur
        else:
            child_ns[id(span.parent)] = child_ns.get(id(span.parent), 0) + dur
    durations: dict[str, list] = {}
    stats: dict[str, dict] = {}
    for span in spans:
        dur = span.end_ns - span.start_ns
        row = stats.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (dur - child_ns.get(id(span), 0)) * 1e-9
        row["total_s"] += dur * 1e-9
        for key, val in (span.counters or {}).items():
            row[key] = row.get(key, 0) + val
        durations.setdefault(span.name, []).append(dur * 1e-3)
    for name, row in stats.items():
        values = sorted(durations[name])
        row["p50_us"] = _quantile(values, 0.5)
        row["p90_us"] = _quantile(values, 0.9)
    return {"functions": stats, "covered_s": covered_ns * 1e-9}
