"""Order statistics of latency samples."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple


def percentile(
    values: Sequence[float], q: float, weights: Optional[Sequence[int]] = None
) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``.

    Nearest rank, not interpolation, so the reported latency is one that was
    observed; ``inf`` entries (failed or missing replies) sort above every
    measured value.  ``weights[i]`` counts ``values[i]`` that many times: a
    call that decided k arrivals is k arrivals' latency.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    if weights is None:
        weights = [1] * len(values)
    pairs = sorted(zip(values, weights))
    rank = max(math.ceil(q / 100.0 * sum(weights)), 1)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return float(value)
    return float(pairs[-1][0])


def windowed_percentile(
    windows: Sequence[Tuple[Sequence[float], Optional[Sequence[int]]]], q: float
) -> float:
    """Median over ``windows`` of each window's weighted ``q``-th percentile.

    ``windows`` holds ``(values, weights)`` pairs, one per repetition of a
    closed workload.  A tail percentile pooled over the run is set by its
    slowest repetition; when the host itself stalls for seconds, that is an
    accident of timing.  The median over repetitions reports the tail most
    repetitions show instead.
    """
    if not windows:
        raise ValueError("no windows")
    return statistics.median(percentile(values, q, weights) for values, weights in windows)
