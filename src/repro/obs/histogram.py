"""Bounded latency accounting: streaming histograms and reservoirs.

Both structures exist so a week-long serve process cannot leak memory
through its metrics: the old ``ServiceMetrics`` kept raw per-request
latency samples in lists that only a ``maxlen`` bounded, and quantiles
were computed by sorting.  Here:

* :class:`StreamingHistogram` — fixed log-spaced buckets, O(1) per
  observation, mergeable, and directly exposable in Prometheus
  cumulative ``le`` form.
* :class:`Reservoir` — Algorithm R over a deterministic RNG, a
  fixed-size uniform sample of everything ever observed, used for the
  backward-compatible nearest-rank percentile keys.

Neither structure locks; callers (``ServiceMetrics``) already hold a
lock around every mutation.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Iterable, Sequence

#: Log-spaced seconds buckets covering sub-millisecond engine phases up
#: to multi-second worst cases; the Prometheus adapter appends +Inf.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class StreamingHistogram:
    """Fixed-bucket streaming histogram with sum/count.

    ``bounds`` are upper bucket edges in ascending order; values above
    the last edge land in the implicit overflow (+Inf) bucket.
    """

    __slots__ = ("bounds", "counts", "overflow", "total", "sum")

    def __init__(
        self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket edges must be strictly ascending")
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += 1
        self.sum += value
        idx = bisect_left(self.bounds, value)
        if idx == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[idx] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return self.total

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, Prometheus bucket form
        (the +Inf bucket equals :attr:`count`)."""
        out = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.overflow))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile.

        Coarse by construction (resolution = bucket width); the
        reservoir keeps the precise backward-compatible percentiles.
        Returns 0.0 when empty; overflow observations report the last
        finite edge.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, int(round(q * self.total)))
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            if running >= rank:
                return bound
        return self.bounds[-1]

    def merge(self, other: "StreamingHistogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.overflow += other.overflow
        self.total += other.total
        self.sum += other.sum

    def state(self) -> dict:
        """Plain-dict form for snapshots and wire shipping."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.total,
            "sum": self.sum,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingHistogram":
        hist = cls(state["bounds"])
        counts = state["counts"]
        if len(counts) != len(hist.counts):
            raise ValueError("histogram state counts mismatch bounds")
        hist.counts = [int(c) for c in counts]
        hist.total = int(state["count"])
        # The +Inf bucket holds whatever the finite buckets do not.
        hist.overflow = hist.total - sum(hist.counts)
        hist.sum = float(state["sum"])
        return hist


class Reservoir:
    """Fixed-size uniform sample (Algorithm R, deterministic seed).

    Keeps at most ``size`` of everything ever observed, each with equal
    probability, in O(size) memory.  The seed is fixed so percentile
    snapshots are reproducible across identical runs.
    """

    __slots__ = ("size", "seen", "_samples", "_rng")

    def __init__(self, size: int, *, seed: int = 0x5EED) -> None:
        if size <= 0:
            raise ValueError(f"reservoir size must be positive, got {size}")
        self.size = size
        self.seen = 0
        self._samples: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        self.seen += 1
        if len(self._samples) < self.size:
            self._samples.append(float(value))
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.size:
            self._samples[slot] = float(value)

    def percentiles(self, *qs: float) -> list[float]:
        """Nearest-rank percentiles over the retained samples (each
        ``q`` in [0, 1]) from one sort; 0.0 when empty. Exact while
        fewer than ``size`` values have been observed, an unbiased
        estimate after."""
        ordered = sorted(self._samples)
        if not ordered:
            return [0.0] * len(qs)
        last = len(ordered) - 1
        return [
            ordered[min(last, max(0, int(q * len(ordered))))] for q in qs
        ]

    def __len__(self) -> int:
        return len(self._samples)
