"""Order statistics shared by the worker, the command and ``compare.py``."""

from __future__ import annotations

import math
import statistics

#: A reported tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (``p`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> float:
    """Expected number of samples above percentile ``p`` of ``n`` samples."""
    return n * (100.0 - p) / 100.0


def tail_percentile(n: int, candidates=TAIL_CANDIDATES) -> float | None:
    """Highest candidate percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when even the median has fewer."""
    for p in candidates:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values) -> dict:
    """Median, quartiles and sample count of one metric's values."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}
