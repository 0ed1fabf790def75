import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resgrow as rg


def _modules_after(statements: str, package: str = "scipy") -> str:
    """The modules of package a fresh interpreter holds after running statements."""
    src = str(Path(rg.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; import resgrow; "
        f"{statements}; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def test_import_does_not_load_scipy():
    """scipy.ndimage is imported only when a grid is labeled: at module
    level it would raise a fresh `import resgrow` from about 0.15 to
    0.48 s, and with it the benchmark's setup_s and every one-shot CLI
    run that labels no grid."""
    assert _modules_after("pass") == "[]"


def test_small_sigma_min_batch_does_not_load_scipy():
    """scipy.linalg, 0.36 s to import, is loaded only when an Operator
    factors the Schur form of a non-diagonal matrix, so one-shot
    `analyze` and `path` runs on small batches, and batches on a
    diagonal matrix, do not pay it."""
    below = (
        "zs = np.linspace(0.1, 1.0, 96) + 0.5j; "
        "resgrow.sigma_min_batch(resgrow.random_dense(47, 0), zs); "
        "resgrow.sigma_min_batch(resgrow.random_dense(64, 0), zs[:63]); "
        "resgrow.sigma_min_batch(resgrow.zigzag_diagonal(10), zs); "
        "op = resgrow.Operator(resgrow.random_dense(64, 0)); op.eigenvalues; op.norm"
    )
    assert _modules_after(below) == "[]"
    above = below + "; resgrow.sigma_min_batch(resgrow.random_dense(64, 0), zs[:64])"
    assert "'scipy.linalg'" in _modules_after(above)


def test_batches_below_the_split_floor_do_not_load_the_thread_pool():
    """concurrent.futures, about 5 ms to import, is loaded only when a batch
    of at least _SPLIT_MIN_POINTS points on the SVD route is split over two
    or more CPUs: not by `import resgrow`, nor by smaller batches, nor by
    large ones on a diagonal A.  (scipy.linalg imports it itself.)"""
    assert _modules_after("pass", "concurrent") == "[]"
    below = (
        "resgrow.linalg._workers = lambda: 2; "
        "zs = np.linspace(0.1, 1.0, 2048) + 0.5j; "
        "resgrow.sigma_min_batch(resgrow.jordan_block(8, 0.0), zs[:1023]); "
        "resgrow.sigma_min_batch(resgrow.zigzag_diagonal(10), zs)"
    )
    assert _modules_after(below, "concurrent") == "[]"
    above = below + "; resgrow.sigma_min_batch(resgrow.jordan_block(8, 0.0), zs[:1024])"
    assert "'concurrent.futures'" in _modules_after(above, "concurrent")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_one_cpu_splits_nothing():
    """A process that may run on one CPU only evaluates a grid-sized batch
    on its own thread, without the pool, to the same values."""
    src = str(Path(rg.__file__).resolve().parent.parent)
    code = (
        "import os, sys, threading; sys.path.insert(0, sys.argv[1]); "
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "import numpy as np, resgrow; "
        "zs = np.linspace(-2.0, 2.0, 4096) + 0.5j; "
        "print(resgrow.sigma_min_batch(resgrow.jordan_block(8, 0.0), zs).tobytes().hex()); "
        "print(threading.active_count(), 'concurrent' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    values, threads = proc.stdout.split("\n")[:2]
    zs = np.linspace(-2.0, 2.0, 4096) + 0.5j
    assert values == rg.sigma_min_batch(rg.jordan_block(8, 0.0), zs).tobytes().hex()
    assert threads == "1 False"
