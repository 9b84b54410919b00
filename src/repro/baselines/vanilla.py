"""Vanilla-overlap top-k search (the JOSIE-style syntactic comparator).

Semantic overlap generalizes vanilla overlap (Lemma 1); the paper's
quality experiment (Fig. 8) compares the top-k lists of both measures on
the same collection. Vanilla search needs no graph matching: probing the
inverted index with the query tokens and counting posting hits per set
yields every ``|Q ∩ C|`` in one pass.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.koios import ResultEntry, SearchResult, check_k
from repro.core.stats import SearchStats
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError
from repro.index.inverted import InvertedIndex


class VanillaOverlapSearch:
    """Exact top-k by ``|Q ∩ C|`` via inverted-index counting."""

    def __init__(self, collection: SetCollection) -> None:
        self._collection = collection
        self._inverted = InvertedIndex(collection)

    @property
    def collection(self) -> SetCollection:
        return self._collection

    def overlaps(self, query: Iterable[str]) -> Counter:
        """``set_id -> |Q ∩ C|`` for every set sharing a token with Q."""
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        counts: Counter = Counter()
        for token in query_set:
            for set_id in self._inverted.sets_containing(token):
                counts[set_id] += 1
        return counts

    def search(self, query: Iterable[str], k: int = 10) -> SearchResult:
        """Top-k sets by vanilla overlap (ties broken by ascending id)."""
        check_k(k)
        counts = self.overlaps(query)
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        stats = SearchStats()
        stats.candidates = len(counts)
        entries = [
            ResultEntry(
                set_id=set_id,
                name=self._collection.name_of(set_id),
                score=float(overlap),
                exact=True,
                lower_bound=float(overlap),
                upper_bound=float(overlap),
            )
            for set_id, overlap in ranked[:k]
        ]
        return SearchResult(entries=entries, stats=stats, k=k)
