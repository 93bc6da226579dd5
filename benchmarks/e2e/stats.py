"""Order statistics for benchmark samples.

Quartiles follow :func:`statistics.quantiles` with ``n=4`` (its default
"exclusive" method), the rule used to judge run-to-run spread, so a
spread printed here is the one recomputed from the raw samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable

__all__ = ["median", "quartiles", "spread", "summarize"]


def median(values: Iterable[float]) -> float:
    """The median of a non-empty sample."""
    vals = list(values)
    if not vals:
        raise ValueError("median of an empty sample")
    return statistics.median(vals)


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own three quartiles."""
    vals = list(values)
    if not vals:
        raise ValueError("quartiles of an empty sample")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(values: Iterable[float]) -> float:
    """Interquartile range as a share of the median (``inf`` at median 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Median, quartiles and sample count of one metric."""
    vals = list(values)
    q1, q2, q3 = quartiles(vals)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(vals)}
