"""Tests of the benchmark itself.

    python3 -m pytest bench -q

The end-to-end checks run bench/run.py in a subprocess, as a user
would; they take about two minutes on a 2-core machine.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import resgrow  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "points", "sigma_min_points", "valid_ratio", "steps_per_probe",
          "serialize.bytes", "fail_frac")


@functools.cache
def bench(workload: str, seed: int, trace: int, copy: int = 0) -> dict:
    """Last line of one benchmark run; ``copy`` tells repeated runs apart."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = bench(workload, 0, 1), bench(workload, 0, 1, copy=1)
    counts = [k for k in first["metrics"] if k.endswith(COUNTS)]
    assert counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_other_seed_reports_every_metric(workload, trace):
    result = bench(workload, 1, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec
    }
    assert result["correct"] and result["attempted"] >= 1
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_known_failures_counted():
    result = bench("path-suite", 1, 1)
    assert result["failed"] >= len(workloads.KNOWN_FAILURES)
    full = json.loads((HERE / "out" / "path-suite-seed1-trace1.json").read_text())
    failed = {(f["unit"], f["error"]) for f in full["failures"]}
    assert {("known/shift[2,1]", "SearchError"), ("known/shift[3,1,1,1,1,1]", "SearchError"),
            ("known/jordan(16,0.5)", "NearSingularError")} <= failed


def test_counts_are_per_distinct_unit():
    workload = workloads.path_suite(5, passes=1)
    known = [u for u in workload.passes[0] if u.label.startswith("known")]
    units = known + [u for u in workload.passes[0] if u.label.startswith("shift")][:3]
    tally = harness.Tally(units)
    harness.run_round(workload, tally)
    first = tally.attempted, tally.failed
    harness.run_round(workload, tally)
    assert (tally.attempted, tally.failed) == first == (6, 3)
    assert len(tally.durations) == 12 and not tally.unsteady


def test_outcome_that_changes_between_rounds_is_a_failure():
    tally = harness.Tally([workloads.Unit("a", ()), workloads.Unit("b", ())])
    for failure in (None, ("SearchError", "step-failure")):
        tally.record(0, 0.1, failure)
        tally.record(1, 0.1, None)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    assert ("a", "unsteady", "outcome changed between rounds") in tally.failures


def _corrupt_path(out):
    path, cert, text = out
    return dataclasses.replace(path, eigenvalue=path.eigenvalue + 1e-3), cert, text


def _corrupt_grid(out):
    meta, csv, text = out
    return meta, csv[: csv.rindex("\n", 0, -1) + 1], text


def _corrupt_probe(out):
    point, *rest = out
    return (dataclasses.replace(point, sigma_min=point.sigma_min * (1 + 1e-6)), *rest)


@pytest.mark.parametrize("build, corrupt, pick", [
    (workloads.path_suite, _corrupt_path, lambda u: u.label.startswith("shift")),
    (workloads.grid_map, _corrupt_grid, lambda u: u.label == "zigzag4"),
    (workloads.point_probe, _corrupt_probe, lambda u: u.label.startswith("shift")),
])
def test_corrupted_output_is_a_failure(build, corrupt, pick):
    workload = build(5, passes=1)
    units = [u for u in workload.passes[0] if pick(u)][:2]
    assert units
    clean = harness.run_units(workload, units)
    assert (clean.failed, clean.wrong) == (0, 0)

    tally = harness.run_units(_broken(workload, corrupt), units)
    assert tally.attempted == len(units)
    assert tally.failed == tally.wrong == len(units)
    assert all(error == "check" for _, error, _ in tally.failures)


def _invalid_certificate(out):
    path, cert, text = out
    return path, dataclasses.replace(cert, valid=False), text


def _broken(workload, corrupt):
    return dataclasses.replace(workload, run=lambda u: corrupt(workload.run(u)))


def test_negative_verdict_is_a_failure_not_a_wrong_output():
    workload = workloads.path_suite(5, passes=1)
    units = [u for u in workload.passes[0] if u.label.startswith("shift")][:2]
    tally = harness.run_units(_broken(workload, _invalid_certificate), units)
    assert (tally.failed, tally.wrong) == (len(units), 0)
    assert all(error == "verdict" for _, error, _ in tally.failures)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text((HERE / "run.py").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-map", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_tracer_restores_bindings():
    before = resgrow.pseudo.sigma_min_batch, resgrow.growth.sigma_min_batch, resgrow.find_path
    with Tracer() as tracer:
        assert resgrow.pseudo.sigma_min_batch is not before[0]
        tracer.unit = 0
        resgrow.pseudo.grid_sigma_min(resgrow.zigzag_diagonal(4), -1, 6, -2, 2, 4, 3)
        tracer.unit = None
    assert (resgrow.pseudo.sigma_min_batch, resgrow.growth.sigma_min_batch,
            resgrow.find_path) == before
    names = [s.name for s in tracer.spans]
    assert names == ["pseudo.grid_sigma_min", "linalg.sigma_min_batch"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].value == 12
