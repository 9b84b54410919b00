"""Token-id interning and CSR posting views — the columnar substrate.

Algorithm 1 as written addresses everything by token *strings*: posting
lists are ``dict[str, list[int]]``, the stream is ``(str, str, float)``
tuples, and candidate bookkeeping hashes strings on every probe. The
columnar engine (:mod:`repro.core.fastpath`) replaces those hash
probes with integer indexing, which requires one shared coordinate
system: the :class:`TokenTable` interns a vocabulary to dense integer
ids (sorted token order, so the table is reproducible from the
vocabulary alone and identical to the snapshot format's token section),
and :class:`CSRPostings` lays an inverted index out as two NumPy arrays
in CSR style — ``offsets[token_id] : offsets[token_id + 1]`` slices the
posting list of a token out of one flat ``sets`` array.

A useful side effect of the CSR layout: every ``(token, set)``
membership pair owns exactly one global position in ``sets``, so a
boolean array over positions is a dense "is this member token matched
in this candidate" table — the structure that lets refinement replace
per-candidate ``set.add``/``in`` bookkeeping with vectorized masks.

A CSR view is built once per index — adopted from snapshot arrays,
mask-restricted out of them (:func:`csr_restrict`), or walked token by
token (:func:`csr_from_index`, also the test oracle) — and from then on
*advanced* across mutations by :func:`csr_advance`, which splices in
exactly what changed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import InvalidParameterError


class TokenTable:
    """Dense integer ids for a fixed vocabulary, in sorted token order."""

    __slots__ = ("_tokens", "_ids")

    def __init__(self, tokens: Sequence[str]) -> None:
        """``tokens`` must be unique and sorted (the canonical id order
        shared with the snapshot format); use :meth:`from_vocabulary` for
        an arbitrary token set."""
        self._tokens: list[str] = list(tokens)
        self._ids: dict[str, int] = {
            token: i for i, token in enumerate(self._tokens)
        }

    @classmethod
    def from_vocabulary(cls, vocabulary: Iterable[str]) -> "TokenTable":
        return cls(sorted(vocabulary))

    @property
    def tokens(self) -> list[str]:
        """The id -> token list (do not mutate)."""
        return self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str, default: int = -1) -> int:
        """The id of ``token``, or ``default`` when not interned."""
        return self._ids.get(token, default)

    def token_at(self, token_id: int) -> str:
        return self._tokens[token_id]

    def encode(self, tokens: Iterable[str]) -> np.ndarray:
        """Ids for ``tokens`` (-1 for tokens outside the table)."""
        get = self._ids.get
        return np.fromiter(
            (get(token, -1) for token in tokens), dtype=np.int64
        )


def token_table_for(collection) -> TokenTable:
    """The shared :class:`TokenTable` of a collection's vocabulary.

    Cached on the collection object keyed by its ``vocabulary_generation``
    (when mutable), so every shard engine of a pool — and every
    partition of each engine — interns against one table object, and a
    mutation that leaves the vocabulary alone hands back the *same*
    object: the stream's column cache, the vector store's row maps
    and every per-shard CSR view aligned to it stay warm.
    """
    generation = getattr(collection, "vocabulary_generation", None)
    cached = getattr(collection, "_token_table_cache", None)
    if cached is not None and cached[0] == generation:
        return cached[1]
    vocabulary = collection.vocabulary
    if (
        cached is not None
        and len(vocabulary) == len(cached[1])
        and vocabulary.issuperset(cached[1].tokens)
    ):
        # Tokens left and came back (a replace that re-uses a set's
        # only-here token): the generation moved, the vocabulary did not.
        table = cached[1]
    else:
        table = TokenTable.from_vocabulary(vocabulary)
    collection._token_table_cache = (generation, table)
    return table


@dataclass(frozen=True)
class CSRPostings:
    """One inverted index as flat arrays aligned to a :class:`TokenTable`.

    Attributes
    ----------
    offsets:
        ``int64[len(table) + 1]``; token ``t``'s posting list is
        ``sets[offsets[t]:offsets[t + 1]]`` (empty for absent tokens).
    sets:
        ``int64[total_postings]`` of global set ids, in the same order
        the dict-backed index stores them (ascending ids).
    """

    offsets: np.ndarray
    sets: np.ndarray

    @property
    def total_postings(self) -> int:
        return int(self.sets.shape[0])

    def set_sizes(self) -> np.ndarray:
        """``int64[max_set_id + 1]`` member counts per set id.

        Every member token of an indexed set has a posting entry, so the
        per-id entry count *is* the set cardinality.
        """
        if self.sets.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.sets)

    def nbytes(self) -> int:
        return int(self.offsets.nbytes + self.sets.nbytes)


def posting_slices(
    offsets: np.ndarray, token_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The posting slices of ``token_ids``, expanded to flat positions.

    Returns ``(owner, positions)``: entry ``j`` is the CSR position
    ``positions[j]`` of a posting of token ``token_ids[owner[j]]``.
    Slices follow ``token_ids`` order and ascend within themselves; a
    negative id (a token outside the table) has an empty slice.
    """
    known = token_ids >= 0
    safe = np.where(known, token_ids, 0)
    starts = offsets[safe]
    counts = np.where(known, offsets[safe + 1] - starts, 0)
    owner = np.repeat(np.arange(token_ids.shape[0], dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    positions = np.arange(owner.shape[0], dtype=np.int64) + (
        starts - first
    )[owner]
    return owner, positions


def csr_from_lengths(
    lengths: np.ndarray, members: np.ndarray
) -> CSRPostings:
    """Adopt snapshot-style ``(per-token lengths, flat members)`` arrays."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return CSRPostings(
        offsets=offsets, sets=np.ascontiguousarray(members, dtype=np.int64)
    )


def csr_restrict(csr: CSRPostings, keep: np.ndarray) -> CSRPostings:
    """``csr`` restricted to the set ids flagged in the bool mask ``keep``.

    One vectorized boolean-mask pass over the flat ``sets`` array —
    per-token order (ascending ids) is preserved, so the result is
    bitwise-identical to filtering each posting list in Python. This is
    what partition/shard engines use to carve their slice out of a
    snapshot's full CSR arrays without an O(total postings) Python scan.
    """
    kept = keep[csr.sets]
    # prefix[i] = how many of the first i entries survive; indexing it by
    # the old offsets yields the new offsets, correct even for runs of
    # empty posting lists (np.add.reduceat is not).
    prefix = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(kept, out=prefix[1:])
    return CSRPostings(
        offsets=prefix[csr.offsets],
        sets=np.ascontiguousarray(csr.sets[kept], dtype=np.int64),
    )


def _pairs(table: TokenTable, sets) -> tuple[np.ndarray, np.ndarray]:
    """``(token ids, set ids)`` of every membership of ``sets`` — a
    sequence of ``(set_id, members)`` — in the order given."""
    token_ids = table.encode(
        token for _, members in sets for token in members
    )
    set_ids = np.repeat(
        np.fromiter((set_id for set_id, _ in sets), dtype=np.int64),
        np.fromiter((len(m) for _, m in sets), dtype=np.int64),
    )
    if token_ids.size and int(token_ids.min()) < 0:
        raise InvalidParameterError(
            "token table does not cover a set being spliced"
        )
    return token_ids, set_ids


def _locate(
    csr: CSRPostings, token_ids: np.ndarray, set_ids: np.ndarray
) -> np.ndarray:
    """Positions of the ``(token, set)`` entries in ``csr.sets``: one
    lower-bound binary search per pair inside its token's ascending
    segment, all pairs stepped together."""
    sets = csr.sets
    lo = csr.offsets[token_ids]
    hi = csr.offsets[token_ids + 1]
    while True:
        open_ = lo < hi
        if not open_.any():
            break
        mid = (lo + hi) >> 1
        right = open_ & (sets[np.where(open_, mid, 0)] < set_ids)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(open_ & ~right, mid, hi)
    inside = lo < csr.offsets[token_ids + 1]
    if not (inside.all() and (sets[lo] == set_ids).all()):
        raise InvalidParameterError(
            "posting view does not hold a set being cut from it"
        )
    return lo


def csr_advance(
    csr: CSRPostings,
    old_table: TokenTable,
    table: TokenTable,
    dead,
    born,
) -> CSRPostings:
    """``csr`` carried to a later state of the same posting view.

    ``csr`` is aligned to ``old_table``; the result is aligned to
    ``table`` and *array-equal* to :func:`csr_from_index` over the later
    state. ``dead`` and ``born`` are sequences of ``(set_id, members)``:
    sets the view held that have since been deleted, and sets it has
    gained — ids ascending and above every id in ``csr`` (ids are
    append-only, so a new entry belongs at the end of its token's
    segment). The work is O(|delta| log) index arithmetic plus one
    copy of ``sets`` per direction; nothing walks the postings, and the
    vocabulary is only touched when the table object changed.
    """
    if not dead and not born and table is old_table:
        return csr
    sets = csr.sets
    lengths = np.diff(csr.offsets)
    if dead:
        token_ids, set_ids = _pairs(old_table, dead)
        sets = np.delete(sets, _locate(csr, token_ids, set_ids))
        lengths -= np.bincount(token_ids, minlength=len(old_table))
    if table is not old_table:
        # Both tables are in sorted-token order, so surviving segments
        # keep their relative order and only the length vector moves.
        moved = table.encode(old_table.tokens)
        kept = moved >= 0
        if lengths[~kept].any():
            raise InvalidParameterError(
                "token table dropped a token that still has postings"
            )
        remapped = np.zeros(len(table), dtype=np.int64)
        remapped[moved[kept]] = lengths[kept]
        lengths = remapped
    if born:
        token_ids, set_ids = _pairs(table, born)
        # Token-major, ids ascending within a token (the stable sort
        # keeps the order given): np.insert places equal positions —
        # one token's new entries, or the ends of empty neighbouring
        # segments — in exactly this order.
        order = np.argsort(token_ids, kind="stable")
        token_ids, set_ids = token_ids[order], set_ids[order]
        ends = np.cumsum(lengths)
        sets = np.insert(sets, ends[token_ids], set_ids)
        lengths += np.bincount(token_ids, minlength=len(table))
    offsets = np.zeros(len(table) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return CSRPostings(offsets=offsets, sets=sets)


def csr_from_index(index, table: TokenTable) -> CSRPostings:
    """CSR view of any inverted index exposing ``sets_containing``.

    The generic per-token build: the first build of an index with no
    array backing (a dict-backed :class:`~repro.index.inverted.InvertedIndex`,
    an eager mutable overlay) and the oracle the array paths —
    snapshot adoption, :func:`csr_restrict`, :func:`csr_advance` — are
    tested against. Nothing on the serving path calls it twice for one
    index.
    """
    offsets = np.zeros(len(table) + 1, dtype=np.int64)
    chunks: list[Sequence[int]] = []
    total = 0
    for token_id, token in enumerate(table.tokens):
        ids = index.sets_containing(token)
        total += len(ids)
        offsets[token_id + 1] = total
        if ids:
            chunks.append(ids)
    if total:
        sets = np.fromiter(
            (set_id for chunk in chunks for set_id in chunk),
            dtype=np.int64,
            count=total,
        )
    else:
        sets = np.zeros(0, dtype=np.int64)
    return CSRPostings(offsets=offsets, sets=sets)
