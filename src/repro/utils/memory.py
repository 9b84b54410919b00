"""Memory accounting for search data structures.

The paper reports the memory footprint of Koios as the sum of the
footprints of its data structures (token stream, inverted index, buckets,
top-k lists, priority queues — §VIII-D). Each structure reports its own
size through an ``nbytes()`` method built from the per-object costs
below, and ``MemoryLedger`` aggregates the named sizes the same way the
paper's Table III / Fig. 5d / Fig. 6d do.

The sizes are estimates: a container's own table is exact
(``sys.getsizeof``), its entries are charged a fixed per-entry cost, and
objects a structure merely references (token strings, set-id ints owned
by the collection) are not charged to it.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sized

#: Per-object costs on the running interpreter.
FLOAT_BYTES = sys.getsizeof(0.0)
INT_BYTES = sys.getsizeof(1 << 20)


def tuple_bytes(length: int) -> int:
    """Size of one tuple object holding ``length`` references."""
    return sys.getsizeof(()) + 8 * length


def container_bytes(container: Sized, per_entry: int) -> int:
    """A list/dict/set's own table plus ``per_entry`` bytes of owned
    objects per entry — O(1), no walk over the entries."""
    return sys.getsizeof(container) + len(container) * per_entry


class MemoryLedger:
    """Aggregates the peak size of named data structures.

    The ledger keeps the maximum recorded per name so that freeing
    refinement structures before post-processing (as Koios does) still
    reports the peak footprint, matching the paper's accounting.
    """

    def __init__(self) -> None:
        self._peaks: dict[str, int] = {}

    def record(self, name: str, size_bytes: int) -> None:
        """Record the current size of the structure called ``name``."""
        if size_bytes > self._peaks.get(name, 0):
            self._peaks[name] = size_bytes

    def merge(self, other: "MemoryLedger") -> None:
        for name, size in other._peaks.items():
            self.record(name, size)

    @property
    def total_bytes(self) -> int:
        return sum(self._peaks.values())

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)

    def breakdown(self) -> dict[str, int]:
        return dict(self._peaks)

    def names(self) -> Iterable[str]:
        return self._peaks.keys()
