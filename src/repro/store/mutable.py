"""Live collection mutation: delta postings, tombstones, versions.

A :class:`MutableSetCollection` overlays insert/delete/replace on top of
a :class:`~repro.datasets.collection.SetCollection` without ever
rebuilding the derived structures:

* **ids are append-only** — an insert takes the next slot, a delete
  leaves a tombstone, a replace is delete + insert under the same name.
  Ids of surviving sets never shift, so cached results, WAL records, and
  per-shard engines all stay meaningful across mutations;
* **postings are delta-maintained** — each insert appends the new id to
  its tokens' posting lists (ids are assigned in increasing order, so
  lists stay ascending, exactly the order a full
  :class:`~repro.index.inverted.InvertedIndex` rebuild produces);
  deletes are *not* removed from the lists — readers filter tombstones,
  and :meth:`vacuum` (run by WAL compaction) rewrites the lists;
* **the vocabulary is reference-counted** — a token leaves the
  vocabulary the moment its last containing set dies, which is what
  keeps the token stream's vocabulary filter exact under deletes;
  ``vocabulary_generation`` moves only when a refcount crosses 0↔1, so
  everything interned against the vocabulary survives mutations that
  leave it alone;
* **``version`` increases monotonically** with every mutation — the
  engine pool hot-swaps on it and the result cache keys on it;
* **the delta is readable as arrays** — ``alive_mask`` flags live slots
  and an append-only tombstone log keeps each dead set's tokens, so a
  shard's columnar posting view is *advanced* across a mutation
  (:meth:`DeltaInvertedIndex.advance`) instead of being rebuilt.

Overlays adopted from a memmap-backed snapshot
(:meth:`MutableSetCollection.from_snapshot`) are *copy-on-write*: the
base postings stay CSR array slices over the snapshot file and per-set
``frozenset``s materialize only when read, so a worker that never
mutates keeps sharing the snapshot's single page-cache copy. A posting
list is copied onto the heap the first time a mutation touches its
token; :meth:`vacuum` (WAL compaction) materializes everything and drops
the array backing.

The equivalence contract (proven by ``tests/store/test_equivalence.py``):
searching through the incremental structures returns bitwise-identical
results to an engine rebuilt from scratch on the final collection state.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.datasets.collection import CollectionStats, SetCollection
from repro.errors import InvalidParameterError
from repro.index.interning import (
    CSRPostings,
    TokenTable,
    csr_advance,
    csr_from_index,
    csr_restrict,
)
from repro.index.inverted import PostingStats

#: Rough bytes per posting entry (pointer + small-int object share),
#: used for the O(1) memory estimate delta indexes report instead of a
#: full object-graph walk.
_POSTING_ENTRY_BYTES = 32

#: Placeholder for a not-yet-materialized set slot in a lazy overlay.
#: Distinct from ``None``, which marks a tombstone.
_LAZY = object()


class _CowNames:
    """Copy-on-write name table for snapshot-adopted overlays.

    The base is a lazy snapshot string view (names decode from the map
    on access); inserts land in a heap tail. Names are never overwritten
    in place — deletion tombstones ``_sets`` and drops the name-map
    entry, leaving the table untouched — so base + tail is the complete
    picture.
    """

    __slots__ = ("_base", "_tail")

    def __init__(self, base: Sequence[str]) -> None:
        self._base = base
        self._tail: list[str | None] = []

    def __len__(self) -> int:
        return len(self._base) + len(self._tail)

    def __getitem__(self, index: int) -> str | None:
        base = self._base
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index < len(base):
            return base[index]
        return self._tail[index - len(base)]

    def append(self, name: str | None) -> None:
        self._tail.append(name)

    def __iter__(self) -> Iterator[str | None]:
        yield from self._base
        yield from self._tail


class MutableSetCollection(SetCollection):
    """A :class:`SetCollection` that supports live mutation.

    Parameters
    ----------
    base:
        Initial contents (copied; the base collection is not touched).
    postings:
        Prebuilt ``token -> ascending live set ids`` map aligned with
        ``base``. Built from ``base`` when omitted. (The snapshot loader
        no longer goes through this eager path — it adopts CSR arrays
        via :meth:`from_snapshot` instead.)
    """

    def __init__(
        self,
        base: SetCollection | None = None,
        *,
        postings: Mapping[str, Sequence[int]] | None = None,
    ) -> None:
        self._sets: list[frozenset[str] | None] = []
        self._names: list[str | None] = []
        #: ``None`` means "not built yet" (lazy adoption); use
        #: :meth:`_names_map` for every access.
        self._name_to_id: dict[str, int] | None = {}
        #: Heap posting lists: deltas + copy-on-write materializations.
        self._postings: dict[str, list[int]] = {}
        #: Live reference counts; the keys are the vocabulary.
        self._token_refs: dict[str, int] = {}
        self._vocabulary_generation = 0
        self._vocabulary_cache: tuple[int, frozenset[str]] | None = None
        #: Liveness per id slot (over-allocated; see :attr:`alive_mask`).
        self._alive = np.zeros(0, dtype=bool)
        #: Append-only ``(set id, members)`` of every deleted set; views
        #: remember how far they have read. Like dead posting entries it
        #: lives until the process restarts from a compacted snapshot.
        self._tombstones: list[tuple[int, frozenset[str]]] = []
        self._num_live = 0
        self._posting_entries = 0
        self._dead_posting_entries = 0
        self._version = 0
        self._mutation_lock = threading.Lock()
        # CSR backing of a snapshot-adopted overlay (None when eager):
        # the snapshot's token section as a table and its posting
        # arrays (``sets`` in on-disk ``u4``), aligned to each other.
        self._base: SetCollection | None = None
        self._base_table: TokenTable | None = None
        self._base_csr: CSRPostings | None = None
        if base is not None:
            self._adopt(base, postings)

    def _adopt(
        self,
        base: SetCollection,
        postings: Mapping[str, Sequence[int]] | None,
    ) -> None:
        self._sets = [base[set_id] for set_id in base.ids()]
        self._names = [base.name_of(set_id) for set_id in base.ids()]
        self._num_live = len(self._sets)
        self._alive = np.ones(len(self._sets), dtype=bool)
        assert self._name_to_id is not None
        for set_id, name in enumerate(self._names):
            if name in self._name_to_id:
                raise InvalidParameterError(
                    f"duplicate set name: {name!r} (mutation is keyed "
                    "by name, so names must be unique)"
                )
            self._name_to_id[name] = set_id
        if postings is None:
            for set_id, members in enumerate(self._sets):
                for token in members:
                    self._postings.setdefault(token, []).append(set_id)
        else:
            self._postings = {
                token: list(ids) for token, ids in postings.items()
            }
        for token, ids in self._postings.items():
            self._token_refs[token] = len(ids)
            self._posting_entries += len(ids)

    @classmethod
    def from_snapshot(cls, loaded) -> "MutableSetCollection":
        """Adopt a :class:`~repro.store.snapshot.LoadedSnapshot` lazily.

        No Python posting lists, frozensets, or name map are built here:
        base postings are served as slices of the (possibly memmapped)
        CSR arrays, sets materialize on read, and lists are copied onto
        the heap only when a mutation touches their token. Cold start is
        O(tokens), not O(postings).
        """
        overlay = cls()
        base = loaded.collection
        overlay._base = base
        overlay._sets = [_LAZY] * len(base)
        overlay._names = _CowNames(loaded.names)
        overlay._name_to_id = None
        overlay._num_live = len(base)
        overlay._alive = np.ones(len(base), dtype=bool)
        tokens = loaded.tokens
        overlay._base_table = TokenTable(tokens)
        overlay._base_csr = CSRPostings(
            offsets=loaded.posting_offsets, sets=loaded.posting_members
        )
        overlay._token_refs = {
            token: count
            for token, count in zip(tokens, loaded.posting_lengths.tolist())
            if count
        }
        # The snapshot token section IS the sorted vocabulary: pre-seed
        # the token-table cache (see
        # :func:`~repro.index.interning.token_table_for`) so engine
        # builds skip re-sorting 100k+ strings at bootstrap.
        overlay._token_table_cache = (0, overlay._base_table)
        return overlay

    # -- container protocol (live view) ------------------------------------

    def __len__(self) -> int:
        return self._num_live

    def _set_at(self, set_id: int):
        """The slot's frozenset, materialized from the base if lazy;
        ``None`` for tombstones."""
        members = self._sets[set_id]
        if members is _LAZY:
            members = self._base[set_id]  # type: ignore[index]
            self._sets[set_id] = members
        return members

    def __getitem__(self, set_id: int) -> frozenset[str]:
        members = self._set_at(set_id)
        if members is None:
            raise InvalidParameterError(f"set {set_id} has been deleted")
        return members

    def __iter__(self) -> Iterator[frozenset[str]]:
        for set_id, members in enumerate(self._sets):
            if members is _LAZY:
                members = self._set_at(set_id)
            if members is not None:
                yield members

    def ids(self) -> list[int]:  # type: ignore[override]
        """Ascending ids of live sets (tombstoned slots skipped)."""
        return np.flatnonzero(self.alive_mask).tolist()

    def name_of(self, set_id: int) -> str:
        name = self._names[set_id]
        if name is None or self._sets[set_id] is None:
            raise InvalidParameterError(f"set {set_id} has been deleted")
        return name

    def id_of(self, name: str) -> int:
        try:
            return self._names_map()[name]
        except KeyError:
            raise InvalidParameterError(
                f"no live set named {name!r}"
            ) from None

    def cardinality(self, set_id: int) -> int:
        members = self._sets[set_id]
        if members is _LAZY:
            return self._base.cardinality(set_id)  # type: ignore[union-attr]
        if members is None:
            raise InvalidParameterError(f"set {set_id} has been deleted")
        return len(members)

    def subset(self, set_ids: Sequence[int]) -> SetCollection:
        return SetCollection(
            [self[i] for i in set_ids],
            names=[self.name_of(i) for i in set_ids],
        )

    def stats(self) -> CollectionStats:
        sizes = []
        for set_id, members in enumerate(self._sets):
            if members is _LAZY:
                sizes.append(self._base.cardinality(set_id))  # type: ignore[union-attr]
            elif members is not None:
                sizes.append(len(members))
        return CollectionStats(
            num_sets=len(sizes),
            max_size=max(sizes) if sizes else 0,
            avg_size=sum(sizes) / len(sizes) if sizes else 0.0,
            num_unique_elements=len(self._token_refs),
        )

    # -- mutation ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter; 0 for a freshly adopted base."""
        return self._version

    @property
    def num_slots(self) -> int:
        """Total id slots ever allocated (live + tombstoned)."""
        return len(self._sets)

    @property
    def alive_mask(self) -> np.ndarray:
        """``bool[num_slots]``: which id slots hold a live set. A
        read-only view of the live buffer, not a copy."""
        mask = self._alive[:len(self._sets)]
        mask.flags.writeable = False
        return mask

    @property
    def vocabulary(self) -> frozenset[str]:
        """The live vocabulary; the same object until it changes."""
        cached = self._vocabulary_cache
        if cached is None or cached[0] != self._vocabulary_generation:
            cached = (
                self._vocabulary_generation, frozenset(self._token_refs)
            )
            self._vocabulary_cache = cached
        return cached[1]

    @property
    def vocabulary_generation(self) -> int:
        """Moves only when a token enters or leaves the vocabulary (its
        reference count crosses 0↔1), never on a mutation that re-uses
        live tokens."""
        return self._vocabulary_generation

    def _names_map(self) -> dict[str, int]:
        """``name -> live set id``, built on first use for lazy overlays
        (duplicate names are rejected here, at first keyed access,
        instead of at adoption)."""
        mapping = self._name_to_id
        if mapping is None:
            names = list(self._names)
            live = self.ids()
            mapping = dict(zip(map(names.__getitem__, live), live))
            if len(mapping) != len(live):
                seen: set[str] = set()
                for name in map(names.__getitem__, live):
                    if name in seen:
                        raise InvalidParameterError(
                            f"duplicate set name: {name!r} (mutation is "
                            "keyed by name, so names must be unique)"
                        )
                    seen.add(name)
            self._name_to_id = mapping
        return mapping

    def contains_name(self, name: str) -> bool:
        return name in self._names_map()

    def insert(
        self, tokens: Iterable[str], *, name: str | None = None
    ) -> int:
        """Add a new set; returns its id (the next free slot)."""
        members = frozenset(tokens)
        if not members:
            raise InvalidParameterError("collections may not contain empty sets")
        if any(not isinstance(token, str) for token in members):
            raise InvalidParameterError("set tokens must be strings")
        with self._mutation_lock:
            set_id = len(self._sets)
            if name is None:
                name = f"set_{set_id}"
            names = self._names_map()
            if name in names:
                raise InvalidParameterError(
                    f"a live set named {name!r} already exists "
                    "(delete or replace it instead)"
                )
            self._sets.append(members)
            self._names.append(name)
            names[name] = set_id
            if set_id >= len(self._alive):
                grown = np.zeros(max(16, 2 * set_id), dtype=bool)
                grown[:len(self._alive)] = self._alive
                self._alive = grown
            self._alive[set_id] = True
            refs = self._token_refs
            for token in members:
                self._posting_for_write(token).append(set_id)
                count = refs.get(token, 0)
                refs[token] = count + 1
                if not count:
                    self._vocabulary_generation += 1
            self._posting_entries += len(members)
            self._num_live += 1
            self._version += 1
            return set_id

    def delete(self, ref: int | str) -> int:
        """Tombstone a live set by id or name; returns the id."""
        with self._mutation_lock:
            set_id = self._resolve(ref)
            members = self._set_at(set_id)
            assert members is not None  # _resolve checked liveness
            self._sets[set_id] = None
            self._alive[set_id] = False
            self._tombstones.append((set_id, members))
            name = self._names[set_id]
            if name is not None:
                self._names_map().pop(name, None)
            for token in members:
                remaining = self._token_refs[token] - 1
                if remaining:
                    self._token_refs[token] = remaining
                else:
                    del self._token_refs[token]
                    self._vocabulary_generation += 1
            self._dead_posting_entries += len(members)
            self._num_live -= 1
            self._version += 1
            return set_id

    def replace(self, ref: int | str, tokens: Iterable[str]) -> int:
        """Delete ``ref`` and insert ``tokens`` under the same name.

        Returns the *new* id: replacement allocates a fresh slot so the
        ascending-posting invariant (and any result cached against the
        old id's version) stays intact.
        """
        members = frozenset(tokens)
        # Validate BEFORE the delete: a rejected replace must leave the
        # old set alive, or an unlogged op destroys data.
        if not members:
            raise InvalidParameterError(
                "collections may not contain empty sets"
            )
        if any(not isinstance(token, str) for token in members):
            raise InvalidParameterError("set tokens must be strings")
        old_id = self._resolve(ref)
        name = self._names[old_id]
        self.delete(old_id)
        assert name is not None
        return self.insert(members, name=name)

    def _resolve(self, ref: int | str) -> int:
        if isinstance(ref, str):
            try:
                return self._names_map()[ref]
            except KeyError:
                raise InvalidParameterError(
                    f"no live set named {ref!r}"
                ) from None
        set_id = int(ref)
        if not (0 <= set_id < len(self._sets)) or self._sets[set_id] is None:
            raise InvalidParameterError(
                f"no live set with id {set_id}"
            )
        return set_id

    # -- posting access (heap deltas over optional CSR backing) ------------

    def _base_posting(self, token: str) -> np.ndarray | None:
        """The base CSR slice for ``token`` (zero-copy; ``None`` when
        there is no CSR backing or the token is not in it)."""
        base = self._base_csr
        if base is None:
            return None
        token_id = self._base_table.id_of(token)  # type: ignore[union-attr]
        if token_id < 0:
            return None
        start = base.offsets[token_id]
        end = base.offsets[token_id + 1]
        if end <= start:
            return None
        return base.sets[start:end]

    def _posting_for_write(self, token: str) -> list[int]:
        """The heap posting list of ``token``, copying the base CSR
        slice on first write (copy-on-write materialization)."""
        posting = self._postings.get(token)
        if posting is None:
            base = self._base_posting(token)
            posting = [] if base is None else base.tolist()
            self._postings[token] = posting
            if posting:
                # These entries move from array- to heap-accounting.
                self._posting_entries += len(posting)
        return posting

    def posting_of(self, token: str):
        """Current posting list of ``token`` including tombstoned ids:
        a heap ``list`` (delta/materialized) or a read-only array slice
        of the CSR backing; ``None`` when the token has no postings.
        Readers must filter tombstones themselves (see
        :class:`DeltaInvertedIndex`)."""
        posting = self._postings.get(token)
        if posting is not None:
            return posting
        return self._base_posting(token)

    def posting_tokens(self) -> Iterator[str]:
        """Every token with any posting entries (dead ones included)."""
        yield from self._postings
        if self._base_csr is not None:
            overridden = self._postings
            offsets = self._base_csr.offsets
            tokens = self._base_table.tokens  # type: ignore[union-attr]
            for token_id, token in enumerate(tokens):
                if token not in overridden and (
                    offsets[token_id + 1] > offsets[token_id]
                ):
                    yield token

    # -- derived structures -------------------------------------------------

    def alive(self, set_id: int) -> bool:
        return (
            0 <= set_id < len(self._sets) and self._sets[set_id] is not None
        )

    def delta_index(
        self, set_ids: Sequence[int] | None = None
    ) -> "DeltaInvertedIndex":
        """An inverted-index view over the live postings, optionally
        restricted to ``set_ids`` (one per engine shard)."""
        return DeltaInvertedIndex(self, set_ids)

    def vacuum(self) -> int:
        """Rewrite posting lists without tombstoned ids; returns the
        number of dead entries dropped. Run by WAL compaction — routine
        serving never needs it, readers filter tombstones on the fly.
        On a CSR-backed overlay this materializes every base posting
        list and drops the array backing (compaction rewrites the world
        anyway)."""
        with self._mutation_lock:
            if self._base_csr is not None:
                for token in self._base_table.tokens:  # type: ignore[union-attr]
                    if token not in self._postings:
                        base = self._base_posting(token)
                        if base is not None:
                            posting = base.tolist()
                            self._postings[token] = posting
                            self._posting_entries += len(posting)
                self._base_table = None
                self._base_csr = None
            dropped = 0
            for token in list(self._postings):
                posting = self._postings[token]
                live = [i for i in posting if self._sets[i] is not None]
                dropped += len(posting) - len(live)
                if live:
                    self._postings[token] = live
                else:
                    del self._postings[token]
            self._posting_entries -= dropped
            self._dead_posting_entries = 0
            return dropped

    def compacted(self) -> SetCollection:
        """A dense immutable copy of the live state (ids renumbered
        0..len-1 in current id order, names preserved) — what snapshot
        compaction persists."""
        live = self.ids()
        return SetCollection(
            [self._set_at(i) for i in live],
            names=[self._names[i] for i in live],
        )

    def posting_bytes(self) -> int:
        """O(1) estimate of the posting-list footprint: exact array
        bytes for the CSR backing plus the rough per-entry object cost
        of heap lists."""
        return (
            (0 if self._base_csr is None else self._base_csr.nbytes())
            + self._posting_entries * _POSTING_ENTRY_BYTES
            + len(self._postings) * _POSTING_ENTRY_BYTES
        )


class DeltaInvertedIndex:
    """An :class:`~repro.index.inverted.InvertedIndex`-compatible view of
    a :class:`MutableSetCollection`'s delta-maintained postings.

    The view *owns* a subset of the id slots (all of them when built
    without ``set_ids``); reads answer "owned and alive right now", so
    deletes show through at once. Slots allocated after the view was
    built are not owned until :meth:`advance` hands them over — the
    engine pool does that under its write lock on every hot swap.
    Posting order matches a full rebuild exactly: ids are appended in
    increasing order and filtering preserves it.
    """

    def __init__(
        self,
        overlay: MutableSetCollection,
        set_ids: Sequence[int] | None = None,
    ) -> None:
        self._overlay = overlay
        if set_ids is None:
            self._owned: np.ndarray | None = None
            self._num_sets = len(overlay)
        else:
            self._owned = np.zeros(overlay.num_slots, dtype=bool)
            self._owned[np.asarray(set_ids, dtype=np.int64)] = True
            self._num_sets = len(set_ids)
        # The overlay state the view's owner has seen: slots allocated
        # and tombstones logged (see :meth:`advance`).
        self._slots = overlay.num_slots
        self._buried = len(overlay._tombstones)

    @property
    def num_sets(self) -> int:
        """Live sets the view held at its last :meth:`advance`."""
        return self._num_sets

    def sets_containing(self, token: str) -> list[int]:
        posting = self._overlay.posting_of(token)
        if posting is None or len(posting) == 0:
            return []
        ids = np.asarray(posting, dtype=np.int64)
        owned = self._owned
        if owned is not None:
            ids = ids[ids < len(owned)]
            ids = ids[owned[ids]]
        return ids[self._overlay.alive_mask[ids]].tolist()

    def __contains__(self, token: str) -> bool:
        return bool(self.sets_containing(token))

    def __len__(self) -> int:
        return sum(
            1 for token in self._overlay.posting_tokens()
            if self.sets_containing(token)
        )

    def _delta_since(self, slots: int, buried: int):
        """``(dead, born)`` — ``(set id, members)`` lists — of this view
        against the overlay state with ``slots`` id slots and ``buried``
        tombstones: owned sets deleted since, and owned sets inserted
        since that are still alive."""
        overlay = self._overlay
        owned = self._owned
        dead = [
            (set_id, members)
            for set_id, members in overlay._tombstones[buried:]
            if set_id < slots and (owned is None or owned[set_id])
        ]
        if owned is None:
            fresh = np.arange(slots, overlay.num_slots)
        else:
            fresh = slots + np.flatnonzero(owned[slots:])
        fresh = fresh[overlay.alive_mask[fresh]]
        born = [(set_id, overlay[set_id]) for set_id in fresh.tolist()]
        return dead, born

    def advance(self, new_ids: Sequence[int]):
        """Take ownership of ``new_ids`` (slots allocated since the last
        advance; ignored by a full view, which owns every slot) and
        return ``(dead, born)``: what this view lost and gained since
        then, as ``(set id, members)`` lists in id order — exactly the
        delta that carries a columnar view of it forward
        (:func:`~repro.index.interning.csr_advance`)."""
        overlay = self._overlay
        if self._owned is not None:
            owned = np.zeros(overlay.num_slots, dtype=bool)
            owned[:len(self._owned)] = self._owned
            owned[np.asarray(new_ids, dtype=np.int64)] = True
            self._owned = owned
        dead, born = self._delta_since(self._slots, self._buried)
        self._slots = overlay.num_slots
        self._buried = len(overlay._tombstones)
        self._num_sets += len(born) - len(dead)
        return dead, born

    def columnar(self, table) -> CSRPostings:
        """The CSR posting view aligned to ``table``, built from scratch.

        Over a CSR-backed snapshot adoption this is pure array work: the
        snapshot arrays mask-filtered to the view's owned ids
        (:func:`~repro.index.interning.csr_restrict`), then carried from
        the snapshot's state to the live one by the same
        :func:`~repro.index.interning.csr_advance` a hot swap uses — no
        Python pass over posting lists, mutated or not. An overlay with
        no array backing (eager, or vacuumed) pays the generic per-token
        build once; its engine advances the result from there on.
        """
        overlay = self._overlay
        base = overlay._base_csr
        if base is None:
            return csr_from_index(self, table)
        base_slots = len(overlay._base)
        if self._owned is None:
            csr = CSRPostings(
                offsets=base.offsets,
                sets=np.ascontiguousarray(base.sets, dtype=np.int64),
            )
        else:
            # Restrict the on-disk u4 arrays directly: only the view's
            # surviving entries are ever converted to int64 heap memory.
            csr = csr_restrict(base, self._owned[:base_slots])
        dead, born = self._delta_since(base_slots, 0)
        return csr_advance(csr, overlay._base_table, table, dead, born)

    def stats(self) -> PostingStats:
        lengths = [
            length
            for token in self._overlay.posting_tokens()
            if (length := len(self.sets_containing(token)))
        ]
        if not lengths:
            return PostingStats(0, 0, 0, 0.0)
        return PostingStats(
            num_tokens=len(lengths),
            total_postings=sum(lengths),
            max_list_length=max(lengths),
            avg_list_length=sum(lengths) / len(lengths),
        )

    def nbytes(self) -> int:
        """This view's share of the overlay's one shared posting store
        (O(1): the store's estimate scaled by the fraction of live sets
        the view covers), so an engine's partition views sum to one
        store rather than one per partition."""
        total = self._overlay.posting_bytes()
        if self._owned is None:
            return total
        return total * self._num_sets // max(1, len(self._overlay))
