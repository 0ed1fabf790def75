import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import resgrow as rg

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


def test_bench_tracer_targets_resolve():
    """The benchmark's tracer looks up each of its targets by module and
    name, so renaming or deleting one must break a test here."""
    tracing = _load_tool("tracing", ROOT / "bench")
    for module, attr, _ in tracing.TARGETS.values():
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
