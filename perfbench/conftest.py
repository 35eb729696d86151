"""Lets the benchmark's tests import the package from the source tree:
``python3 -m pytest perfbench`` from the repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
