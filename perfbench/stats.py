"""Summary statistics for benchmark samples.

Percentiles follow the rule that a reported percentile must have at least
ten samples beyond it, so p50 needs 20 samples, p90 needs 100 and p99
needs 1000. Every summary records its sample count, which the run prints
next to the result.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples above the
    nearest-rank ``q``-th percentile."""
    n = MIN_BEYOND
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Raises :class:`TooFewSamples` unless at least ten samples lie beyond
    the returned rank.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"needs {min_samples(q)} samples"
        )
    return sorted(values)[rank - 1]


class Samples:
    """Named sample sets summarized into percentiles with their counts."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def percentiles(
        self, name: str, values: list[float], qs: tuple[float, ...]
    ) -> dict[float, float]:
        """``{q: value}`` for each requested percentile of ``values``;
        the sample count is recorded under ``name``."""
        self.counts[name] = len(values)
        return {q: percentile(values, q) for q in qs}

    def mean(self, name: str, values: list[float]) -> float:
        """Mean of ``values``; the count is recorded."""
        if not values:
            raise TooFewSamples(f"{name}: no samples")
        self.counts[name] = len(values)
        return statistics.fmean(values)
