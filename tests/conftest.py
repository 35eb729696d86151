"""Lets the tests import the package from the source tree without
``PYTHONPATH``: ``python -m pytest tests/test_primitives.py`` from the
repository root.

Every property test draws the same examples on every run: the ``tier1``
Hypothesis profile derandomizes generation and keeps no example database,
so a run neither depends on nor leaves behind an earlier run's failures.
Each test's own ``max_examples`` stands."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
