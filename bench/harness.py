"""Closed-loop measurement of one workload.

One process, one unit at a time: the next unit starts when the
previous one has finished.  A unit that raises a ``ResgrowError`` or
fails a check is counted as failed and the loop goes on.

A run goes through a fixed list of units in rounds, as many as fit in
the time.  ``attempted`` and ``failed`` count distinct units, so they
depend only on the seed, not on how many rounds the machine managed.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

import resgrow

from tracing import Tracer, layer_metrics, median_metrics
from workloads import VERDICTS, Unit, Workload

SETUP_REPEATS = 9
# the lowest run count at which the 90th percentile has ten samples beyond it
P90_MIN_UNITS = 100

# (error class, or "verdict" or "check"; reason)
Failure = tuple[str, str]


def attempt(workload: Workload, unit: Unit, tracer: Tracer | None = None,
            index: int = 0) -> tuple[float, Failure | None]:
    """Run one unit and check its output: its duration, and its failure or None."""
    if tracer is not None:
        tracer.unit = index
    start = perf_counter()
    try:
        out = workload.run(unit)
    except resgrow.ResgrowError as exc:
        out, error = None, exc
    else:
        error = None
    finally:
        if tracer is not None:
            tracer.unit = None
    duration = perf_counter() - start
    if error is not None:
        return duration, (type(error).__name__, getattr(error, "reason", None) or str(error))
    problems = workload.check(unit, out)
    if problems:
        kind = "verdict" if VERDICTS.issuperset(problems) else "check"
        return duration, (kind, ",".join(problems))
    return duration, None


@dataclass
class Tally:
    """Outcomes of a fixed list of units, each run one or more times."""

    units: Sequence[Unit]
    durations: list[float] = field(default_factory=list)  # every run, in order
    outcomes: dict[int, Failure | None] = field(default_factory=dict)  # first run of each unit
    unsteady: set[int] = field(default_factory=set)  # units whose runs disagreed

    def record(self, index: int, duration: float, failure: Failure | None) -> None:
        self.durations.append(duration)
        first = self.outcomes.setdefault(index, failure)
        if (first and first[0]) != (failure and failure[0]):
            self.unsteady.add(index)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(f is not None or i in self.unsteady for i, f in self.outcomes.items())

    @property
    def wrong(self) -> int:
        """Units whose output failed a check other than a verdict."""
        return sum(f is not None and f[0] == "check" for f in self.outcomes.values())

    @property
    def failures(self) -> Counter:
        """(unit label, error class or "verdict", "check" or "unsteady", reason) -> units."""
        out = Counter((self.units[i].label, *f) for i, f in self.outcomes.items() if f)
        out.update((self.units[i].label, "unsteady", "outcome changed between rounds")
                   for i in self.unsteady)
        return out


def run_round(workload: Workload, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run every unit of the tally once, in order; the summed unit time."""
    start = len(tally.durations)
    for i, unit in enumerate(tally.units):
        tally.record(i, *attempt(workload, unit, tracer, i))
    return sum(tally.durations[start:])


def run_units(workload: Workload, units: Sequence[Unit]) -> Tally:
    """Run each unit once."""
    tally = Tally(list(units))
    run_round(workload, tally)
    return tally


def setup(build, seed: int) -> tuple[Workload, float]:
    """Generate the inputs and warm up, several times; median duration."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = build(seed)
        run_units(workload, workload.warmup)
        times.append(perf_counter() - start)
    return workload, statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, seconds: float) -> tuple[Tally, dict[str, float]]:
    """Run every pass of the workload in rounds for ``seconds``.

    A round starts only if a round of median length still fits; the
    first always runs.  ``units_per_s`` is the median over the rounds,
    so a round slowed by the machine's other tenants does not move it.
    """
    tally = Tally([u for p in workload.passes for u in p])
    busy, wall = [], []
    start = perf_counter()
    while not wall or perf_counter() - start + statistics.median(wall) <= seconds:
        round_start = perf_counter()
        busy.append(run_round(workload, tally))
        wall.append(perf_counter() - round_start)
    ms = sorted(1e3 * d for d in tally.durations)
    metrics = {
        "units_per_s": statistics.median(tally.attempted / b for b in busy),
        "unit_p50_ms": statistics.median(ms),
    }
    if len(ms) >= P90_MIN_UNITS:
        metrics["unit_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    metrics["fail_frac"] = tally.failed / tally.attempted
    metrics["rounds"] = len(busy)
    return tally, metrics


def traced(workload: Workload, seconds: float) -> tuple[Tally, dict[str, float], list[Tracer]]:
    """Alternate untraced and traced rounds of pass 0 for ``seconds``.

    Per-layer metrics are medians over the traced rounds;
    trace.overhead_frac compares the busy time of the traced and the
    untraced rounds.
    """
    tally = Tally(workload.passes[0])
    plain, timed, per_round, tracers = [], [], [], []
    start = perf_counter()
    # start another pair only if it fits in the time left
    while not per_round or perf_counter() - start + plain[-1] + timed[-1] <= seconds:
        plain.append(run_round(workload, tally))
        with Tracer() as tracer:
            timed.append(run_round(workload, tally, tracer))
        tracers.append(tracer)
        per_round.append(layer_metrics(tracer.spans))
    metrics = median_metrics(per_round)
    metrics["fail_frac"] = tally.failed / tally.attempted
    metrics["trace.overhead_frac"] = statistics.median(timed) / statistics.median(plain) - 1.0
    return tally, metrics, tracers
