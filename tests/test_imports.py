"""Import-cost guard: the package runs on numpy alone."""

import subprocess
import sys


def test_import_leaves_scipy_unloaded():
    # scipy.sparse.linalg alone adds tens of MB of resident memory and a
    # quarter second of start-up to every run
    code = "import sys, hexflow; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
