"""sha256 of resgrow's deterministic payloads, for byte-identity checks.

    python3 tools/payload_hashes.py

Prints one ``<sha256>  <name>`` line per payload.  Run it on two trees
and diff the output: a change that keeps every output byte-identical
prints the same lines.  The groups are

- ``criterion/<k>``: the dumped payload of acceptance criterion k,
  1 to 8, from ``CRITERIA`` in ``tests/test_acceptance.py``;
- ``path-suite/seed=<s>``: the ``find_path`` JSON of every unit of both
  passes of the path-suite workload in ``bench/workloads.py``, in
  order, for each seed in ``PATH_SUITE_SEEDS``; a unit that raises a
  ``ResgrowError`` contributes its type and reason;
- ``cli/<k>/<command>/exit=<code>`` and ``cli/<k>/<file>``: the exit
  code and stdout of run k of a fixed list of CLI runs through
  ``resgrow.cli.main``, and each file the run writes.  The runs cover
  every subcommand, every exit code (a near-singular report, a failed
  growth bound with its witness, a domain error, a search-failure
  report), ``--output``, ``grid --meta`` and the zigzag4 grid at 160^2.
  The last runs, ``SCHUR_RUNS``, reach the Schur-form routes of
  ``sigma_min_batch`` at n = 48: inverse Lanczos for a localmin probe
  and a grid on ``random_dense(48, 3)``, and the Weyl formula on T for a
  grid on the unitary shift with 48 unit weights.  The final runs,
  ``GUARD_RUNS``, reach the Lipschitz guard of
  ``ShiftedSolver.solve_nearby``: a Taylor check on ``jordan_block(16, 0)``
  at z = 0.3 whose step point 0.16 is singular (exit 3);
- ``certify/<k>/<name>``: the dumped ``certify_path`` certificate of case k
  of ``CERTIFY_CASES``, paths built by hand because ``find_path`` never
  builds them: margin 0 (delta 1e12), delta 0, a negative delta, delta +inf
  at an exact eigenvalue, a dip between samples that refutes the floor, the
  Jordan segment that exhausts the sample budget, an endpoint far from the
  computed spectrum yet inside the set where sigma_min < s_req, a vertex
  whose sigma ties the floor's exactly, and a single vertex whose sigma ties
  s_req, so that it lies outside that open set.

BLAS runs on one thread.  The whole run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import math
import os
import sys
import tempfile
from pathlib import Path

# pinned before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from resgrow import PolyPath, ResgrowError, certify_path, jordan_block  # noqa: E402
from resgrow.cli import main as cli_main  # noqa: E402
from resgrow.serialize import dumps  # noqa: E402

PATH_SUITE_SEEDS = (5, 31, 32)


def _search_failure_run() -> list[str]:
    """`resgrow path` on the Jordan query of the path suite that ends in
    SearchError("singular-vertex"), at epsilon = 1.3 sigma_min(A - zI)."""
    z = 0.536 - 0.176j
    a = jordan_block(16, 0.5)
    eps = 1.3 * float(np.linalg.svd(a - z * np.eye(16), compute_uv=False)[-1])
    return ["path", "j16.json", "--z", f"{z.real!r},{z.imag!r}", "--epsilon", repr(eps)]


# each run is an argument list for `resgrow`; files are named relative
# to a fresh working directory, so no absolute path enters a payload
CLI_RUNS = (
    ["examples", "diag", "--entries", "0,0;3,0", "-o", "diag.json"],
    ["examples", "zigzag", "--n", "4", "-o", "zigzag4.json"],
    ["examples", "shift", "--weights", "2,1,1,1", "-o", "s4.json"],
    ["examples", "jordan", "--n", "16", "--lam", "0.5,0", "-o", "j16.json"],
    ["examples", "random", "--n", "8", "--seed", "3", "-o", "r8.json"],
    ["analyze", "diag.json", "--z", "1,0"],
    ["analyze", "s4.json", "--z", "0,0"],
    ["analyze", "diag.json", "--z", "0,0"],
    ["growth", "diag.json", "--z", "1,0", "--samples", "16", "--expect", "linear",
     "--csv", "ramp.csv"],
    ["growth", "s4.json", "--z", "0,0", "--theta", "0", "--expect", "quadratic",
     "--csv", "s4-ramp.csv"],
    ["growth", "r8.json", "--z", "0.5,0.5", "--a0", "0.01"],
    ["path", "diag.json", "--z", "1,0", "--epsilon", "1.25"],
    ["path", "r8.json", "--z", "2,1", "--epsilon", "0.8"],
    ["localmin", "s4.json", "--z", "0,0", "--r0", "0.05"],
    ["taylor", "s4.json", "--z", "0,0", "--theta", "0"],
    ["taylor", "diag.json", "--z", "1,0"],
    ["grid", "zigzag4.json", "--bounds=-0.5,5.5,-2.5,2.5", "--nx", "160", "--ny", "160",
     "--epsilon", "1.08", "--csv", "grid.csv"],
    _search_failure_run(),
    ["growth", "s4.json", "--z", "0,0", "--theta", "0", "--expect", "linear"],
    ["growth", "diag.json", "--z", "1,0", "--a0", "5"],
    ["analyze", "r8.json", "--z", "0.5,0.5", "--output", "point.json"],
    ["grid", "zigzag4.json", "--bounds=-0.5,5.5,-2.5,2.5", "--nx", "40", "--ny", "30",
     "--epsilon", "1.08", "--csv", "g40.csv", "--meta", "g40-meta.json"],
    ["taylor", "diag.json", "--z", "1,0", "--steps", "0.01,0.005,0.0025,0.00125"],
    ["localmin", "s4.json", "--z", "0,0", "--r0", "0.05", "--radial", "4", "--angular", "8"],
)
# n = 48 and batches of 64 points or more: the routes that factor T
SCHUR_RUNS = (
    ["examples", "random", "--n", "48", "--seed", "3", "-o", "r48.json"],
    ["localmin", "r48.json", "--z", "0.5,0.5", "--r0", "0.25"],
    ["grid", "r48.json", "--bounds=-8,8,-8,8", "--nx", "12", "--ny", "12", "--epsilon", "0.5",
     "--csv", "g48.csv"],
    ["examples", "shift", "--weights", ",".join(["1"] * 48), "-o", "u48.json"],
    ["grid", "u48.json", "--bounds=-1.5,1.5,-1.5,1.5", "--nx", "10", "--ny", "10",
     "--epsilon", "0.3", "--csv", "gu48.csv"],
)
# the guard's sigma_min at the step points and its NearSingularError payload
GUARD_RUNS = (
    ["examples", "jordan", "--n", "16", "--lam", "0,0", "-o", "j16z.json"],
    ["taylor", "j16z.json", "--z", "0.3,0", "--theta", "3.141592653589793",
     "--steps", "0.14,0.07"],
)
CLI_RUNS += SCHUR_RUNS + GUARD_RUNS

_DIAG03, _J16 = np.diag([0j, 3]), jordan_block(16, 0)
# sigma = |z| on diag(0, 3) dips between the first two vertices, so the
# floor, which delta sets, decides how often that segment is bisected
_ARC = (-0.5 + 0.3j, 0.4 + 0.1j, 0)
# (name, matrix, path)
CERTIFY_CASES = (
    ("margin-0", _DIAG03, PolyPath(_ARC, 0, 1.0, 1e12)),
    ("delta-0", _DIAG03, PolyPath(_ARC, 0, 1.0, 0.0)),
    ("delta-negative", _DIAG03, PolyPath(_ARC, 0, 1.0, -0.5)),
    ("delta-inf", _DIAG03, PolyPath((0, 0), 0, 1.0, math.inf)),
    ("dip", np.diag([0j, 1]), PolyPath((0.2, 0.9, 1.0), 1.0, 1.0, 1.996)),
    ("budget", _J16, PolyPath((0.25, 0.2), 0.2, 1.0, 0.0)),
    ("far-endpoint", _J16, PolyPath((0.55, 0.5), 0.5, 1.0, 1e12)),
    ("tie", _DIAG03, PolyPath((1.0, 0.25, 0), 0, 1.0, 1e12)),
    ("outside-endpoint", _DIAG03, PolyPath((1.0,), 1.0, 1.0, 1e12)),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def criteria_lines() -> list[str]:
    acceptance = _load("acceptance", ROOT / "tests" / "test_acceptance.py")
    return [
        f"{_sha(dumps(run()[1]))}  criterion/{num}"
        for num, (_, run) in sorted(acceptance.CRITERIA.items())
    ]


def path_suite_lines(seeds) -> list[str]:
    workloads = _load("workloads", ROOT / "bench" / "workloads.py")
    lines = []
    for seed in seeds:
        digest = hashlib.sha256()
        for units in workloads.path_suite(seed).passes:
            for unit in units:
                try:
                    text = workloads.run_path(unit)[2]
                except ResgrowError as exc:  # a failed query is part of the output
                    text = f"{type(exc).__name__} {getattr(exc, 'reason', '')}\n"
                digest.update(text.encode("utf-8"))
        lines.append(f"{digest.hexdigest()}  path-suite/seed={seed}")
    return lines


def cli_lines() -> list[str]:
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for k, argv in enumerate(CLI_RUNS):
                before = set(os.listdir("."))
                out = io.StringIO()
                # stderr carries only the message of an exit-2 run
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli_main(argv)
                report = f"{code}\n{out.getvalue()}"
                lines.append(f"{_sha(report)}  cli/{k}/{argv[0]}/exit={code}")
                for name in sorted(set(os.listdir(".")) - before):
                    lines.append(f"{_sha(Path(name).read_text())}  cli/{k}/{name}")
        finally:
            os.chdir(cwd)
    return lines


def certify_lines() -> list[str]:
    return [
        f"{_sha(dumps(certify_path(a, path).to_dict()))}  certify/{k}/{name}"
        for k, (name, a, path) in enumerate(CERTIFY_CASES)
    ]


def main() -> None:
    lines = criteria_lines() + path_suite_lines(PATH_SUITE_SEEDS) + cli_lines() + certify_lines()
    print("\n".join(lines))


if __name__ == "__main__":
    main()
