"""Order statistics used by the benchmark's latency metrics."""

from __future__ import annotations

import math

# Candidate tail percentiles, highest first: a tail is the highest one that
# leaves at least MIN_BEYOND samples above it.
TAIL_LADDER = (99, 95, 90)
MIN_BEYOND = 10


def samples_beyond(n: int, pct: int) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile of ``n``."""
    return n - math.ceil(n * pct / 100)


def tail_percentile(n: int) -> int | None:
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when even p90 has too few."""
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]
