"""Outside-in layer tracing for the benchmark.

The tracer wraps public resgrow functions by rebinding their names in
every loaded ``resgrow`` module (``resgrow.pseudo.sigma_min_batch``,
``resgrow.growth.sigma_min_batch``, ``resgrow.sigma_min_batch``, ...),
so calls between modules pass through the wrapper.  Nothing in the
library changes, and the bindings are restored on exit.

Spans are kept in memory: name, start, end, parent span, unit, and
one number the layer reports (points, bytes, certificate validity).
Spans are recorded only while a unit runs, so output checks stay out
of the trace.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import resgrow


def _valid(certificate) -> int:
    return int(certificate.valid)


# span name -> (module, function, what the span reports from the result)
TARGETS: dict[str, tuple[str, str, Callable | None]] = {
    "linalg.sigma_min_batch": ("resgrow.linalg", "sigma_min_batch", len),
    "linalg.eigenvalues": ("resgrow.linalg", "eigenvalues", None),
    "linalg.svd": ("resgrow.linalg", "svd", None),
    "analysis.analyze_point": ("resgrow.analysis", "analyze_point", None),
    "growth.sample_segment_auto": ("resgrow.growth", "sample_segment_auto", None),
    "growth.verify_growth_bound": ("resgrow.growth", "verify_growth_bound", None),
    "growth.taylor_remainder_check": ("resgrow.growth", "taylor_remainder_check", None),
    "growth.local_min_probe": ("resgrow.growth", "local_min_probe", None),
    "pseudo.find_path": ("resgrow.pseudo", "find_path", None),
    "pseudo.certify_path": ("resgrow.pseudo", "certify_path", _valid),
    "pseudo.grid_sigma_min": ("resgrow.pseudo", "grid_sigma_min", None),
    "pseudo.components": ("resgrow.pseudo", "components", None),
    "pseudo.connectivity_order": ("resgrow.pseudo", "connectivity_order", None),
    "pseudo.grid_metadata": ("resgrow.pseudo", "grid_metadata", None),
    "serialize.csv_text": ("resgrow.serialize", "csv_text", len),
    "serialize.dumps": ("resgrow.serialize", "dumps", len),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top of a unit
    unit: int
    value: int = 0
    error: BaseException | None = None


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: int | None = None  # spans are recorded only inside a unit
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.unit)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.value = measure(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "resgrow"]
        for name, (module, attr, measure) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()


# per-layer metric name -> (unit, better)
LAYER_METRICS = {
    "linalg.sigma_min_batch.calls": ("count", "lower"),
    "linalg.sigma_min_batch.points": ("count", "lower"),
    "linalg.sigma_min_batch.busy_s": ("s", "lower"),
    "linalg.sigma_min_batch.us_per_point": ("us", "lower"),
    "linalg.eigenvalues.calls": ("count", "lower"),
    "linalg.eigenvalues.busy_s": ("s", "lower"),
    "linalg.svd.calls": ("count", "lower"),
    "linalg.svd.busy_s": ("s", "lower"),
    "analysis.analyze_point.calls": ("count", "lower"),
    "analysis.analyze_point.busy_s": ("s", "lower"),
    "analysis.analyze_point.self_s": ("s", "lower"),
    "growth.sample_segment_auto.busy_s": ("s", "lower"),
    "growth.taylor_remainder_check.busy_s": ("s", "lower"),
    "growth.local_min_probe.busy_s": ("s", "lower"),
    "growth.verify_growth_bound.busy_s": ("s", "lower"),
    "pseudo.find_path.busy_s": ("s", "lower"),
    "pseudo.find_path.self_s": ("s", "lower"),
    "pseudo.search.sigma_min_points": ("count", "lower"),
    "pseudo.search.steps_per_probe": ("ratio", "higher"),
    "pseudo.certify_path.calls": ("count", "lower"),
    "pseudo.certify_path.busy_s": ("s", "lower"),
    "pseudo.certify.sigma_min_points": ("count", "lower"),
    "pseudo.certify.valid_ratio": ("ratio", "higher"),
    "pseudo.grid_sigma_min.busy_s": ("s", "lower"),
    "pseudo.components.busy_s": ("s", "lower"),
    "pseudo.connectivity_order.busy_s": ("s", "lower"),
    "pseudo.grid_metadata.busy_s": ("s", "lower"),
    "serialize.csv_text.busy_s": ("s", "lower"),
    "serialize.dumps.busy_s": ("s", "lower"),
    "serialize.bytes": ("bytes", "lower"),
    "fail_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def write_spans(tracers: list[Tracer], path) -> None:
    """Write every span as one JSON line; ``pass`` numbers the traced passes."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, tracer in enumerate(tracers):
            for s in tracer.spans:
                fh.write(json.dumps({
                    "pass": k, "unit": s.unit, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "value": s.value,
                    "error": None if s.error is None else type(s.error).__name__,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def _accepted_steps(spans: list[Span], index: int, children: list[int]) -> int:
    """Line-search steps a find_path span accepted.

    Each completed analyze_point below find_path stands at a vertex
    from which a step was then accepted, except the last one of a
    search that ended in a step failure.
    """
    ok = sum(1 for c in children if spans[c].name == "analysis.analyze_point"
             and spans[c].error is None)
    error = spans[index].error
    failed_step = isinstance(error, resgrow.SearchError) and error.reason == "step-failure"
    return ok - int(failed_step)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy times over one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    value: dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    under: dict[tuple[str, str], int] = defaultdict(int)  # (parent, child) -> value
    direct: dict[tuple[str, str], int] = defaultdict(int)  # (parent, child) -> calls
    for i, s in enumerate(spans):
        d = s.end - s.start
        calls[s.name] += 1
        busy[s.name] += d
        value[s.name] += s.value
        if s.parent >= 0:
            parent = spans[s.parent].name
            child_time[s.parent] += d
            children[s.parent].append(i)
            under[parent, s.name] += s.value
            direct[parent, s.name] += 1
    self_time: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        self_time[s.name] += (s.end - s.start) - child_time[i]
    accepted = sum(_accepted_steps(spans, i, children[i])
                   for i, s in enumerate(spans) if s.name == "pseudo.find_path")

    smb = "linalg.sigma_min_batch"
    out = {
        f"{smb}.calls": calls[smb],
        f"{smb}.points": value[smb],
        f"{smb}.busy_s": busy[smb],
        f"{smb}.us_per_point": 1e6 * _ratio(busy[smb], value[smb]),
        "analysis.analyze_point.self_s": self_time["analysis.analyze_point"],
        "pseudo.find_path.self_s": self_time["pseudo.find_path"],
        "pseudo.search.sigma_min_points": under["pseudo.find_path", smb],
        "pseudo.search.steps_per_probe": _ratio(accepted, direct["pseudo.find_path", smb]),
        "pseudo.certify.sigma_min_points": under["pseudo.certify_path", smb],
        "pseudo.certify.valid_ratio": _ratio(value["pseudo.certify_path"],
                                             calls["pseudo.certify_path"]),
        "serialize.bytes": value["serialize.csv_text"] + value["serialize.dumps"],
    }
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if metric not in out and layer in TARGETS:
            out[metric] = calls[layer] if kind == "calls" else busy[layer]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes.

    The low median is one of the measured values, so a count that
    repeats in every pass is reported exactly as counted.
    """
    return {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
