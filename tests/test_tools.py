import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import resgrow as rg

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_sigma_min_crossover_cell_runs():
    """The crossover tool reaches into linalg's private routes, so a
    signature change there must break a test, not only the tool."""
    spec = importlib.util.spec_from_file_location("crossover", TOOLS / "sigma_min_crossover.py")
    tool = importlib.util.module_from_spec(spec)
    # the tool pins the BLAS threads and extends sys.path when imported
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec.loader.exec_module(tool)
    rng = np.random.default_rng(0)
    zs = 0.5 * np.sqrt(48) * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    svd_us, schur_us = tool.cell(rg.random_dense(48, 48), zs, repeats=1).split("/")
    assert float(svd_us) > 0.0 and float(schur_us) > 0.0
