import contextlib
import importlib.util
import io
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import resgrow as rg
from resgrow import linalg

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _load_tool(name: str, folder: Path = TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    # a tool pins the BLAS threads and extends sys.path when imported;
    # dataclasses look their module up in sys.modules while it runs
    with (
        mock.patch.dict(os.environ),
        mock.patch.object(sys, "path", list(sys.path)),
        mock.patch.dict(sys.modules, {name: tool}),
    ):
        spec.loader.exec_module(tool)
    return tool


def test_sigma_min_crossover_cell_runs():
    """The crossover tool reaches into linalg's private routes, so a
    signature change there must break a test, not only the tool."""
    tool = _load_tool("sigma_min_crossover")
    rng = np.random.default_rng(0)
    zs = 0.5 * np.sqrt(48) * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    svd_us, schur_us = tool.cell(rg.random_dense(48, 48), zs, repeats=1).split("/")
    assert float(svd_us) > 0.0 and float(schur_us) > 0.0


def test_sigma_min_crossover_counts_svd_redos():
    """Inverse Lanczos overflows where sigma_min underflows, next to a Jordan
    eigenvalue, and leaves those points NaN for the SVD; the tool counts them."""
    tool = _load_tool("sigma_min_crossover")
    a = rg.jordan_block(64, 0.5)
    zs = 0.5 + np.array([0.5, 0.5j, 1e-4, 1e-5j, -1e-6])
    assert tool.svd_redos(rg.Operator(a).schur, zs) == 3


def test_sigma_min_crossover_split_cell_runs():
    """The split table forces the split at every batch size through linalg's
    private _SPLIT_MIN_ROWS and _workers, so renaming either breaks a test,
    and times batches of slices just below and at the row floor."""
    tool = _load_tool("sigma_min_crossover")
    a = rg.random_dense(8, 8)
    zs = np.linspace(-2.0, 2.0, 64) + 0.5j
    times = tool.cell(a, zs, 1, tool.split_over(1), tool.split_over(2)).split("/")
    assert len(times) == 3 and all(float(t) > 0.0 for t in times)
    with mock.patch.object(linalg, "_sigma_min_svd", wraps=linalg._sigma_min_svd) as svd:
        assert np.array_equal(tool.split_over(2)(a, zs), tool.split_over(1)(a, zs))
    assert svd.call_count == 3  # two slices, then one
    assert linalg._SPLIT_MIN_ROWS == 512
    assert tool.floor_batches(64, 2) == (14, 16) and tool.floor_batches(48, 2) == (20, 22)


def test_sigma_min_crossover_times_sigma_min_batch_only():
    """Every SVD and every triangular solve the crossover tables time runs
    inside sigma_min_batch, on the caller's thread or in the closure it hands
    the pool, so each table measures the routes the package ships."""
    tool = _load_tool("sigma_min_crossover")
    calls = []

    def watched(real):
        def call(*args, **kwargs):
            frame = sys._getframe(1)
            while frame and not frame.f_code.co_qualname.startswith("sigma_min_batch"):
                frame = frame.f_back
            calls.append((real.__name__, frame is not None))
            return real(*args, **kwargs)

        return call

    structured = {
        "jordan_block(64, 0.5)": partial(rg.jordan_block, 64, 0.5),
        "zigzag_diagonal(16)": partial(rg.zigzag_diagonal, 16),
    }
    with (
        mock.patch.multiple(tool, SIZES=(48,), BATCHES=(64,), SPLIT_SIZES=(8,), STRUCTURED=structured),
        # the redo count runs inverse Lanczos untimed, outside sigma_min_batch
        mock.patch.object(tool, "svd_redos", lambda t, zs: 0),
        mock.patch.object(np.linalg, "svd", watched(np.linalg.svd)),
        mock.patch.object(linalg, "_solve_upper", watched(linalg._solve_upper)),
        contextlib.redirect_stdout(io.StringIO()) as out,
    ):
        tool.main(["--repeats", "1"])
    assert {name for name, _ in calls} == {"svd", "_solve_upper"}
    assert all(inside for _, inside in calls)
    rows = ("   48 ", "jordan_block(64, 0.5) ", "zigzag_diagonal(16) ", "    8 ")
    assert all(f"\n{row}" in out.getvalue() for row in rows)


def test_payload_hashes_cli_group_is_deterministic(tmp_path, monkeypatch):
    """Two passes of the hash tool's CLI runs print identical lines; the
    runs exit as intended and leave the working directory as it was."""
    monkeypatch.chdir(tmp_path)
    tool = _load_tool("payload_hashes")
    first = tool.cli_lines()
    assert first == tool.cli_lines()
    codes = [line.rsplit("=", 1)[1] for line in first if "/exit=" in line]
    assert len(codes) == len(tool.CLI_RUNS)
    # a domain error (2), a near-singular analyze (3), a failed growth
    # bound (4) and a search failure (5) are covered
    assert sorted(set(codes)) == ["0", "2", "3", "4", "5"]
    assert os.getcwd() == str(tmp_path) and not os.listdir(tmp_path)


def test_payload_hashes_certify_group_is_deterministic():
    """Two passes of the hash tool's certificate cases print identical lines;
    the cases reach each floor verdict, an endpoint far from the computed
    spectrum that lies inside the open set sigma_min < s_req and one that
    lies outside it, and the delta cases bisect to different depths."""
    tool = _load_tool("payload_hashes")
    first = tool.certify_lines()
    assert first == tool.certify_lines()
    assert len(first) == len(tool.CERTIFY_CASES) == len({line.split()[0] for line in first})
    certs = {name: rg.certify_path(a, path) for name, a, path in tool.CERTIFY_CASES}
    assert [certs[k].samples for k in ("margin-0", "delta-0", "delta-negative")] == [3, 4, 5]
    assert all(certs[k].valid for k in ("margin-0", "delta-0", "delta-negative", "delta-inf"))
    assert certs["dip"].failures == certs["tie"].failures == ("min_f_margin",)
    assert certs["budget"].failures == ("min_f_unproved",)
    assert certs["far-endpoint"].valid
    assert certs["outside-endpoint"].failures == ("endpoint_not_eigenvalue",)


@pytest.fixture(scope="module")
def certify_cases():
    """(matrix, path) pairs: the hash tool's certificate cases, then the find_path
    paths at epsilon = 2 sigma_min(A - zI), z = 0.5 + 0.5i, on random_dense(n, i)
    for n from 2 to 8 and i from 0 to 5, all n < 48, so all on the SVD route."""
    cases = [(a, path) for _, a, path in _load_tool("payload_hashes").CERTIFY_CASES]
    z = 0.5 + 0.5j
    for n in range(2, 9):
        for i in range(6):
            a = rg.random_dense(n, i)
            cases.append((a, rg.find_path(a, 2.0 * rg.sigma_min_batch(a, [z])[0], z)[0]))
    return cases


@pytest.mark.parametrize("k", [-200, -100, -40, -10, -1, 1, 10, 40, 100, 200])
def test_certify_path_is_scale_equivariant(certify_cases, k):
    """Scaling A, the path's points and epsilon by c = 2^k and delta by 1/c scales
    every sigma_min by c exactly, so the certificate keeps its failures and samples,
    and its norms and endpoint distance scale bitwise: no absolute tolerance
    decides a verdict."""
    c = math.ldexp(1.0, k)
    for a, path in certify_cases:
        ref = rg.certify_path(a, path)
        scaled = rg.PolyPath(
            tuple(c * v for v in path.vertices), c * path.eigenvalue, c * path.epsilon,
            path.delta / c,
        )
        cert = rg.certify_path(c * a, scaled)
        assert (cert.failures, cert.samples) == (ref.failures, ref.samples)
        assert cert.vertex_norms == tuple(f / c for f in ref.vertex_norms)
        assert cert.min_f_on_path == ref.min_f_on_path / c
        assert cert.endpoint_distance == ref.endpoint_distance * c


def test_payload_hashes_schur_runs_take_the_schur_routes(tmp_path, monkeypatch):
    """The hash tool's Schur-route runs stay there: random_dense(48, 3)
    takes inverse Lanczos, and the unitary shift with 48 unit weights the
    Weyl formula on T, with neither Lanczos nor the batched SVD.  A
    threshold change that moves them off those routes breaks this test."""
    monkeypatch.chdir(tmp_path)
    tool = _load_tool("payload_hashes")
    calls = {}
    for argv in tool.SCHUR_RUNS:
        with (
            mock.patch.object(linalg, "_inverse_lanczos", wraps=linalg._inverse_lanczos) as lanczos,
            mock.patch.object(linalg, "_sigma_min_svd", wraps=linalg._sigma_min_svd) as svd,
            contextlib.redirect_stdout(io.StringIO()),
        ):
            assert tool.cli_main(argv) == 0
        calls[" ".join(argv[:2])] = (lanczos.call_count, svd.call_count)
    assert calls["localmin r48.json"][0] > 0 and calls["grid r48.json"][0] > 0
    assert calls["grid u48.json"] == (0, 0)


def test_payload_hashes_guard_run_takes_the_guard(tmp_path, monkeypatch):
    """The hash tool's Taylor run on jordan_block(16, 0) exits 3 through the
    Lipschitz guard of ShiftedSolver.solve_nearby, whose batched SVD is
    called from there.  A change that moves it off the guard breaks this test."""
    monkeypatch.chdir(tmp_path)
    tool = _load_tool("payload_hashes")
    callers = []
    real = linalg._sigma_min_svd

    def recording(a, zs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(a, zs)

    with (
        mock.patch.object(linalg, "_sigma_min_svd", recording),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        codes = [tool.cli_main(argv) for argv in tool.GUARD_RUNS]
    assert [argv[0] for argv in tool.GUARD_RUNS] == ["examples", "taylor"]
    assert codes == [0, 3]
    assert callers and set(callers) == {"solve_nearby"}


def test_bench_tracer_targets_resolve():
    """The benchmark's tracer looks up each of its targets by module and
    name, so renaming or deleting one must break a test here."""
    tracing = _load_tool("tracing", ROOT / "bench")
    for module, attr, _ in tracing.TARGETS.values():
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_grcar_matches_the_benchmark_builder():
    """The library's Grcar matrix is bitwise the benchmark's, so the
    benchmark can build its inputs from resgrow.grcar without changing one."""
    workloads = _load_tool("workloads", ROOT / "bench")
    for n in range(3, 131):  # the benchmark's builder needs n >= 3
        assert rg.grcar(n).tobytes() == workloads.grcar(n).tobytes(), n


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    """A failing hypothesis test is reported like any other failure: the
    suite's warning filters must not turn what hypothesis imports to
    explain the failure into an error that ends the session."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n",
        encoding="utf-8",
    )
    config = ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *config, "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
