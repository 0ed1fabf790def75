import subprocess
import sys
from pathlib import Path

import resgrow as rg


def _scipy_modules_after(statements: str) -> str:
    """The scipy modules a fresh interpreter holds after running statements."""
    src = str(Path(rg.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy as np; import resgrow; "
        f"{statements}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
    assert _scipy_modules_after("pass") == "[]"


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
    assert _scipy_modules_after(below) == "[]"
    above = below + "; resgrow.sigma_min_batch(resgrow.random_dense(64, 0), zs[:64])"
    assert "'scipy.linalg'" in _scipy_modules_after(above)
