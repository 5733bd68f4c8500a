"""Arithmetic of the ruler: medians, quartiles, percentiles, failure share.

Timing-free and dependency-free, so ``bench/test_harness.py`` can pin
every rule here without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence

#: percentiles a report may name, lowest first
PERCENTILE_LADDER = (50, 90, 95, 99)

#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least
    ``pct`` % of the samples at or below it)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def highest_supported_percentile(
    n: int, ladder: Sequence[int] = PERCENTILE_LADDER
) -> Optional[int]:
    """The highest percentile of ``ladder`` that still has at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, or ``None``."""
    supported = [
        pct for pct in ladder if samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND
    ]
    return max(supported) if supported else None


def summarize(samples: Iterable[float]) -> Dict[str, float]:
    """Median, quartiles and count of a sample — what every timing in a
    result file carries beside its headline value."""
    values = list(samples)
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def geometric_mean(ratios: Sequence[float]) -> float:
    """Geometric mean; the empty product is 1."""
    if not ratios:
        return 1.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


class Tally:
    """Attempted / failed operation counts with the reasons kept.

    Every way an operation can go wrong — transport error, non-200
    (429 and 503 included), a state other than ``done``, an invalid or
    inexact answer, a pinned reference exceeded, an answer after the
    workload's latency limit — lands here exactly once per operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}
        self.examples: List[str] = []

    def record(self, reason: Optional[str] = None, detail: str = "") -> None:
        """One operation: ``reason`` is ``None`` when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.fail(reason, detail)

    def fail(self, reason: str, detail: str = "") -> None:
        """Mark one already-attempted operation as failed (a check run
        after the timed phase found its answer wrong)."""
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if detail and len(self.examples) < 8:
            self.examples.append(f"{reason}: {detail}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def classify_response(
    status: Optional[int],
    state: Optional[str],
    latency_s: Optional[float],
    limit_s: Optional[float],
) -> Optional[str]:
    """Why one served request counts as failed, or ``None``.

    ``status`` is ``None`` for a transport error.  A shed (429) or
    refused (503) request fails like any other non-200, and so does a
    correct answer that arrived after the latency limit.
    """
    if status is None:
        return "transport"
    if status != 200:
        return f"http-{status}"
    if state != "done":
        return f"state-{state}"
    if limit_s is not None and latency_s is not None and latency_s > limit_s:
        return "over-limit"
    return None
