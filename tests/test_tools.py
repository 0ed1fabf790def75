import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

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
    eigenvalue, and hands those points to the SVD; the tool counts them."""
    tool = _load_tool("sigma_min_crossover")
    a = rg.jordan_block(64, 0.5)
    zs = 0.5 + np.array([0.5, 0.5j, 1e-4, 1e-5j, -1e-6])
    assert tool.svd_redos(rg.Operator(a).schur, a, zs) == 3


def test_sigma_min_crossover_split_cell_runs():
    """The split table forces the split at every batch size through linalg's
    private _SPLIT_MIN_POINTS and _workers, so renaming either breaks a test."""
    tool = _load_tool("sigma_min_crossover")
    a = rg.random_dense(8, 8)
    zs = np.linspace(-2.0, 2.0, 64) + 0.5j
    times = tool.cell(a, zs, 1, tool.svd_on(1), tool.svd_on(2)).split("/")
    assert len(times) == 3 and all(float(t) > 0.0 for t in times)
    with mock.patch.object(linalg, "_sigma_min_svd", wraps=linalg._sigma_min_svd) as svd:
        assert np.array_equal(tool.svd_on(2)(a, zs), tool.svd_on(1)(a, zs))
    assert svd.call_count == 3  # two slices, then one
    assert linalg._SPLIT_MIN_POINTS == 1024


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


def test_bench_tracer_targets_resolve():
    """The benchmark's tracer looks up each of its targets by module and
    name, so renaming or deleting one must break a test here."""
    tracing = _load_tool("tracing", ROOT / "bench")
    for module, attr, _ in tracing.TARGETS.values():
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


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
