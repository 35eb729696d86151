"""Lets the tests import the package from the source tree without
``PYTHONPATH``: ``python -m pytest tests/test_primitives.py`` from the
repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
