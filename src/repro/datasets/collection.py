"""The repository datatype searched by Koios.

A :class:`SetCollection` is the collection ``L`` of the paper: a list of
sets of string tokens, addressed by integer set ids, together with the
derived vocabulary ``D`` (union of all tokens) and posting statistics.
Every searcher (Koios, the baselines, SilkMoth) operates on this type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class CollectionStats:
    """Shape statistics, matching the columns of the paper's Table I."""

    num_sets: int
    max_size: int
    avg_size: float
    num_unique_elements: int

    def as_row(self) -> tuple[int, int, float, int]:
        return (self.num_sets, self.max_size, self.avg_size,
                self.num_unique_elements)


class SetCollection:
    """An in-memory repository of token sets.

    Parameters
    ----------
    sets:
        A sequence of iterables of tokens. Duplicate tokens inside one
        set are collapsed (sets are sets).
    names:
        Optional external names (e.g. table.column identifiers) aligned
        with ``sets``; defaults to ``"set_<id>"``.
    """

    def __init__(
        self,
        sets: Sequence[Iterable[str]],
        names: Sequence[str] | None = None,
    ) -> None:
        self._sets: list[frozenset[str]] = [frozenset(s) for s in sets]
        if any(len(s) == 0 for s in self._sets):
            raise InvalidParameterError("collections may not contain empty sets")
        if names is not None:
            if len(names) != len(self._sets):
                raise InvalidParameterError(
                    "names must align with sets: "
                    f"{len(names)} names for {len(self._sets)} sets"
                )
            self._names = list(names)
        else:
            self._names = [f"set_{i}" for i in range(len(self._sets))]
        vocabulary: set[str] = set()
        for s in self._sets:
            vocabulary.update(s)
        self._vocabulary = vocabulary

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[str]]) -> "SetCollection":
        """Build a collection from ``{name: tokens}``."""
        names = list(mapping.keys())
        return cls([mapping[name] for name in names], names=names)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._sets)

    def __getitem__(self, set_id: int) -> frozenset[str]:
        return self._sets[set_id]

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._sets)

    def ids(self) -> range:
        return range(len(self._sets))

    def name_of(self, set_id: int) -> str:
        return self._names[set_id]

    def id_of(self, name: str) -> int:
        """Inverse of :meth:`name_of`; linear scan, intended for tests
        and examples, not hot paths."""
        return self._names.index(name)

    # -- derived data ----------------------------------------------------

    @property
    def vocabulary(self) -> frozenset[str]:
        """The vocabulary ``D``: every distinct token across all sets."""
        return frozenset(self._vocabulary)

    def cardinality(self, set_id: int) -> int:
        return len(self._sets[set_id])

    def stats(self) -> CollectionStats:
        """Table-I style shape statistics."""
        sizes = [len(s) for s in self._sets]
        return CollectionStats(
            num_sets=len(sizes),
            max_size=max(sizes) if sizes else 0,
            avg_size=sum(sizes) / len(sizes) if sizes else 0.0,
            num_unique_elements=len(self._vocabulary),
        )

    # -- partitioning ------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """Id slots ever allocated; ids are ``0 .. num_slots - 1``."""
        return len(self._sets)

    @property
    def alive_mask(self) -> np.ndarray:
        """``bool[num_slots]``: which id slots hold a set (every one of
        them, for an immutable collection)."""
        return np.ones(len(self._sets), dtype=bool)

    def slot_assignment(
        self,
        num_partitions: int,
        *,
        seed: int | None = 0,
        nested: bool = False,
    ) -> np.ndarray:
        """``int64[num_slots]``: the partition every id slot belongs to.

        The assignment is drawn once per *slot id* — uniformly, so
        partitions have the same expected size, exactly as the paper's
        scale-out scheme — and ``Generator.integers`` is prefix-stable:
        growing the collection never changes the draw of an existing
        id, and deleting a set moves nobody else. ``nested`` selects a
        second, independent stream for splitting a subset that was
        itself carved out with ``seed`` (re-using the first stream
        there would put the whole subset into one partition).
        """
        if nested and isinstance(seed, (int, np.integer)):
            seed = (seed, 1)
        return make_rng(seed).integers(
            0, num_partitions, size=self.num_slots
        )

    def partition(
        self,
        num_partitions: int,
        *,
        seed: int | None = 0,
    ) -> list[list[int]]:
        """Randomly split the live set ids into ``num_partitions``
        ascending groups (§VI) — the layout a ``num_partitions``-shard
        :class:`~repro.service.pool.EnginePool` serves.

        Ownership is id-stable (see :meth:`slot_assignment`); empty
        partitions are possible for tiny inputs.
        """
        if num_partitions < 1:
            raise InvalidParameterError("num_partitions must be >= 1")
        universe = np.flatnonzero(self.alive_mask)
        assignment = self.slot_assignment(
            num_partitions, seed=seed
        )[universe]
        return [
            universe[assignment == part].tolist()
            for part in range(num_partitions)
        ]

    def subset(self, set_ids: Sequence[int]) -> "SetCollection":
        """A new collection containing only ``set_ids`` (names preserved)."""
        return SetCollection(
            [self._sets[i] for i in set_ids],
            names=[self._names[i] for i in set_ids],
        )
