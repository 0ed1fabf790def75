"""Benchmark entry point: one workload, one closed-loop run.

    python3 bench/run.py --workload path-suite --seed 1 --seconds 36 --trace 0

It imports resgrow from the ``src/`` directory beside ``bench/``.
With ``--trace 0`` it measures the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  It prints a
report, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the environment, goes to ``bench/out/``, and a traced
run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

# pinned before numpy is imported
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

IMPORT_REPEATS = 7
IMPORT_TIMER = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import harness, workloads; print(time.perf_counter() - t)")

# end-to-end metric name -> unit; the names the last line carries
END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "unit_p50_ms": "ms"}
# reported, but not on the last line: see NOTES.md
REPORT_ONLY = {"peak_rss_mb": "MB", "unit_p90_ms": "ms", "fail_frac": "ratio", "rounds": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["path-suite", "grid-map", "point-probe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import numpy, resgrow and
    the benchmark; one import in this process would be too noisy."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {
        "seed": seed,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    if not (SRC / "resgrow" / "__init__.py").is_file():
        print(f"bench: resgrow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import resgrow

    import harness
    from workloads import WORKLOADS

    if Path(resgrow.__file__).resolve().parent != SRC / "resgrow":
        print(f"bench: imported resgrow from {resgrow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import_s = import_seconds()
    workload, setup_s = harness.setup(WORKLOADS[args.workload], args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracing import LAYER_METRICS, write_spans

        tally, values, tracers = harness.traced(workload, args.seconds)
        write_spans(tracers, stem.with_suffix(".spans.jsonl"))
        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
        shown = list(units)
    else:
        tally, values = harness.end_to_end(workload, args.seconds)
        values["setup_s"] = import_s + setup_s
        values["peak_rss_mb"] = harness.peak_rss_mb()
        units = {**END_TO_END, **REPORT_ONLY}
        shown = list(END_TO_END)

    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {tally.attempted}  runs {len(tally.durations)}  failed {tally.failed}  "
          f"wrong outputs {tally.wrong}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:40s} {values[name]:14.6g} {unit}")
    for (label, error, reason), count in sorted(tally.failures.items()):
        print(f"  failed x{count}: {label}: {error}: {reason}")
    print(f"  env {json.dumps(env)}")

    failures = [{"unit": label, "error": error, "reason": reason, "count": count}
                for (label, error, reason), count in sorted(tally.failures.items())]
    full = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "environment": env, "attempted": tally.attempted, "runs": len(tally.durations),
            "failed": tally.failed,
            "wrong": tally.wrong, "failures": failures,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values}}
    stem.with_suffix(".json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in shown},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
