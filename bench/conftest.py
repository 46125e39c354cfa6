"""Make the checkout's hexflow importable for the benchmark's own tests.

Run them with ``python3 -m pytest bench`` from the repository root; the
repository's own test run does not collect this directory.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
