"""The inverted index ``Is``: vocabulary token -> posting list of set ids.

Built on the fly and held in an in-memory hash map, exactly as the paper
implements it (§VIII-A3). Posting-list length statistics are exposed
because the paper repeatedly attributes WDC's behaviour to its
"excessively large posting lists".

Two adoption paths avoid the build entirely:

* :meth:`InvertedIndex.from_postings` adopts a prebuilt dict of lists
  (``own=True`` skips even the defensive copy when the caller hands over
  freshly built lists it never reuses);
* :meth:`InvertedIndex.from_csr` adopts snapshot-style CSR arrays
  verbatim — no dict-of-lists view is ever built over them (lookups
  slice the arrays), which is what keeps memmap-backed cold starts
  allocation-free.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.datasets.collection import SetCollection
from repro.index.interning import (
    CSRPostings,
    TokenTable,
    csr_from_index,
)


@dataclass(frozen=True)
class PostingStats:
    """Posting-list length distribution of an inverted index."""

    num_tokens: int
    total_postings: int
    max_list_length: int
    avg_list_length: float


class InvertedIndex:
    """Maps each vocabulary token to the ids of the sets containing it."""

    def __init__(
        self,
        collection: SetCollection,
        set_ids: Sequence[int] | None = None,
    ) -> None:
        """Index ``collection``, optionally restricted to ``set_ids``
        (used to build one index per partition)."""
        postings: dict[str, list[int]] = {}
        ids = collection.ids() if set_ids is None else set_ids
        for set_id in ids:
            for token in collection[set_id]:
                postings.setdefault(token, []).append(set_id)
        self._postings: dict[str, list[int]] | None = postings
        self._csr_cache: tuple[TokenTable, CSRPostings] | None = None
        self._adopted_csr: tuple[list[str], CSRPostings] | None = None
        self._csr_token_ids: dict[str, int] | None = None

    @classmethod
    def from_postings(
        cls, postings: Mapping[str, Sequence[int]], *, own: bool = False
    ) -> "InvertedIndex":
        """Adopt prebuilt posting lists (snapshot load, delta overlays)
        instead of re-indexing a collection.

        Lists are copied so the index owns its postings — unless
        ``own=True``, which adopts the mapping *and its lists* verbatim.
        Use ``own`` only for freshly built structures the caller never
        touches again (the mapping must be a real ``dict`` of ``list``s);
        mutating them afterwards corrupts the index.
        """
        index = cls.__new__(cls)
        if own:
            index._postings = postings  # type: ignore[assignment]
        else:
            index._postings = {
                token: list(set_ids) for token, set_ids in postings.items()
            }
        index._csr_cache = None
        index._adopted_csr = None
        index._csr_token_ids = None
        return index

    @classmethod
    def from_csr(
        cls, tokens: Sequence[str], csr: CSRPostings
    ) -> "InvertedIndex":
        """Adopt a CSR posting view aligned to ``tokens`` (the sorted
        token table) without materializing any per-token Python lists.

        This is the snapshot cold-start path: the columnar engine asks
        for :meth:`columnar` and gets ``csr`` back verbatim;
        :meth:`sets_containing` slices lists out of the arrays lazily.
        ``tokens`` is adopted by reference — do not mutate it afterwards.
        """
        index = cls.__new__(cls)
        index._postings = None
        index._csr_cache = None
        tokens = tokens if isinstance(tokens, list) else list(tokens)
        index._adopted_csr = (tokens, csr)
        index._csr_token_ids = None
        return index

    def columnar(self, table: TokenTable) -> CSRPostings:
        """The CSR posting view aligned to ``table`` (cached).

        The index is immutable, so the view is built once per table; a
        view adopted from a snapshot via :meth:`from_csr` is reused when
        its token section matches ``table``.
        """
        cached = self._csr_cache
        if cached is not None and cached[0] is table:
            return cached[1]
        if (
            self._adopted_csr is not None
            and self._adopted_csr[0] == table.tokens
        ):
            csr = self._adopted_csr[1]
        else:
            csr = csr_from_index(self, table)
        # Hold the table itself: an id()-keyed cache could alias a
        # garbage-collected table's reused id.
        self._csr_cache = (table, csr)
        return csr

    def _token_ids(self) -> dict[str, int]:
        if self._csr_token_ids is None:
            tokens = self._adopted_csr[0]  # type: ignore[index]
            self._csr_token_ids = {t: i for i, t in enumerate(tokens)}
        return self._csr_token_ids

    def __contains__(self, token: str) -> bool:
        if self._postings is not None:
            return token in self._postings
        token_id = self._token_ids().get(token, -1)
        if token_id < 0:
            return False
        offsets = self._adopted_csr[1].offsets  # type: ignore[index]
        return bool(offsets[token_id + 1] > offsets[token_id])

    def __len__(self) -> int:
        if self._postings is not None:
            return len(self._postings)
        offsets = self._adopted_csr[1].offsets  # type: ignore[index]
        return int(np.count_nonzero(np.diff(offsets)))

    def sets_containing(self, token: str) -> list[int]:
        """Posting list for ``token`` (empty list if absent)."""
        if self._postings is not None:
            return self._postings.get(token, [])
        token_id = self._token_ids().get(token, -1)
        if token_id < 0:
            return []
        csr = self._adopted_csr[1]  # type: ignore[index]
        start = csr.offsets[token_id]
        end = csr.offsets[token_id + 1]
        return csr.sets[start:end].tolist()

    def nbytes(self) -> int:
        """Estimated footprint: the adopted CSR arrays, or the dict's
        table and each posting list's own table (one flat pass; token
        strings and set-id ints belong to the collection)."""
        if self._postings is None:
            return self._adopted_csr[1].nbytes()  # type: ignore[index]
        return sys.getsizeof(self._postings) + sum(
            map(sys.getsizeof, self._postings.values())
        )

    def stats(self) -> PostingStats:
        if self._postings is None:
            offsets = self._adopted_csr[1].offsets  # type: ignore[index]
            lengths_arr = np.diff(offsets)
            lengths_arr = lengths_arr[lengths_arr > 0]
            if lengths_arr.size == 0:
                return PostingStats(0, 0, 0, 0.0)
            total = int(lengths_arr.sum())
            return PostingStats(
                num_tokens=int(lengths_arr.size),
                total_postings=total,
                max_list_length=int(lengths_arr.max()),
                avg_list_length=total / int(lengths_arr.size),
            )
        lengths = [len(lst) for lst in self._postings.values()]
        if not lengths:
            return PostingStats(0, 0, 0, 0.0)
        return PostingStats(
            num_tokens=len(lengths),
            total_postings=sum(lengths),
            max_list_length=max(lengths),
            avg_list_length=sum(lengths) / len(lengths),
        )
