"""Bounded top-k lists and the shared pruning threshold.

``TopKList`` implements the running lists of the paper: ``L_lb`` (top-k
lower bounds, whose minimum is ``theta_lb``) and ``L_ub`` (top-k upper
bounds, whose minimum is ``theta_ub``). ``GlobalThreshold`` is the
max-merged ``theta_lb`` shared by all partitions during scale-out (§VI).
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.errors import InvalidParameterError
from repro.utils.memory import FLOAT_BYTES, INT_BYTES, container_bytes


class TopKList:
    """Keeps the k largest ``(set_id, value)`` entries under updates.

    Values only move upward for a given id (bounds tighten monotonically
    in Koios); offering a smaller value than currently stored is a no-op.
    ``bottom()`` is 0.0 until the list holds k entries — pruning against
    an unfilled list must be disabled, and a zero threshold does exactly
    that (semantic overlaps are non-negative).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        self._k = k
        self._values: dict[int, float] = {}
        # The entry the next overflow evicts and the value ``bottom()``
        # reports, kept current by ``offer``/``remove`` so reads are O(1).
        self._bottom_id: int | None = None
        self._bottom = 0.0

    @property
    def k(self) -> int:
        return self._k

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._values

    def value_of(self, set_id: int) -> float:
        return self._values[set_id]

    def offer(self, set_id: int, value: float) -> bool:
        """Insert or raise ``set_id``'s value; evict the minimum if the
        list overflows. Returns True when the list changed."""
        current = self._values.get(set_id)
        if current is not None:
            if value <= current:
                return False
            self._values[set_id] = value
            if set_id == self._bottom_id:
                self._find_bottom()
            return True
        if len(self._values) >= self._k:
            if value <= self._bottom:
                return False
            del self._values[self._bottom_id]
        self._values[set_id] = value
        self._find_bottom()
        return True

    def remove(self, set_id: int) -> None:
        """Drop an entry (used when a set in ``L_ub`` is discarded)."""
        if self._values.pop(set_id, None) is not None:
            self._find_bottom()

    def _find_bottom(self) -> None:
        """Recompute the eviction candidate: the smallest value, the
        largest id among equals. O(k), paid only when the list changes
        at its bottom — never on a read."""
        if len(self._values) < self._k:
            self._bottom_id, self._bottom = None, 0.0
        else:
            self._bottom_id, self._bottom = min(
                self._values.items(), key=lambda item: (item[1], -item[0])
            )

    def bottom(self) -> float:
        """The k-th largest value, or 0.0 while the list is unfilled."""
        return self._bottom

    def items(self) -> Iterator[tuple[int, float]]:
        """Entries in descending value order (id ascending on ties)."""
        return iter(
            sorted(self._values.items(), key=lambda item: (-item[1], item[0]))
        )

    def ids(self) -> set[int]:
        return set(self._values)

    def nbytes(self) -> int:
        """Estimated footprint: one id and one value per entry."""
        return container_bytes(self._values, INT_BYTES + FLOAT_BYTES)


class GlobalThreshold:
    """A monotonically increasing threshold shared across partitions.

    Each partition pushes its local ``theta_lb``; every reader sees the
    maximum over all partitions, which the paper uses to let fast
    partitions prune slow ones. Thread-safe: the shards of an engine
    pool may search on its thread pool.
    """

    def __init__(self, initial: float = 0.0) -> None:
        self._value = initial
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def raise_to(self, candidate: float) -> float:
        """Monotone max-update; returns the post-update value."""
        with self._lock:
            if candidate > self._value:
                self._value = candidate
            return self._value


class ThetaLB:
    """The effective pruning threshold of one partition run.

    Combines the partition-local ``L_lb`` bottom with the global shared
    threshold; both only increase, so ``value`` is monotone — the property
    all pruning lemmas rely on.
    """

    def __init__(self, llb: TopKList, shared: GlobalThreshold | None = None) -> None:
        self._llb = llb
        self._shared = shared

    @property
    def local(self) -> TopKList:
        """The partition-local ``L_lb`` (the columnar engine batches its
        offers and needs the local bottom to skip provable no-ops)."""
        return self._llb

    @property
    def shared(self) -> GlobalThreshold | None:
        """The cross-partition threshold (None for solo runs)."""
        return self._shared

    @property
    def value(self) -> float:
        # Read at least once per candidate by both phases, so the local
        # bottom is an attribute read (same module), not a call.
        local = self._llb._bottom
        if self._shared is None:
            return local
        shared = self._shared.value
        return shared if shared > local else local

    def publish(self) -> None:
        """Push the local bottom into the shared threshold."""
        if self._shared is not None:
            self._shared.raise_to(self._llb.bottom())

    def offer(self, set_id: int, lower_bound: float) -> bool:
        """Offer a lower bound to ``L_lb``; publishes on change."""
        changed = self._llb.offer(set_id, lower_bound)
        if changed:
            self.publish()
        return changed
