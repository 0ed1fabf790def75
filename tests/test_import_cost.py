import subprocess
import sys
from pathlib import Path

import resgrow as rg


def test_import_does_not_load_scipy():
    """scipy.ndimage is imported only when a grid is labeled: at module
    level it would raise a fresh `import resgrow` from about 0.15 to
    0.48 s, and with it the benchmark's setup_s and every one-shot CLI
    run that labels no grid."""
    src = str(Path(rg.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import resgrow; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
