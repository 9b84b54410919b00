"""Greedy-matching top-k search — the comparator Fig. 1 shows failing.

Greedy matching is a 1/2-approximation of the optimal matching, runs in
O(n^2 log n) instead of O(n^3), and is the obvious "cheap" alternative to
Koios. The paper's introduction demonstrates it is *not* a valid
substitute: ranking by greedy score can invert the true order (C1 above
C2 in Fig. 1). This searcher exists to reproduce that negative result and
to quantify the rank disagreement on synthetic corpora.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.koios import ResultEntry, SearchResult, check_k
from repro.core.semantic_overlap import greedy_semantic_overlap
from repro.core.stats import SearchStats
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.index.base import TokenIndex
from repro.index.inverted import InvertedIndex
from repro.index.token_stream import TokenStream
from repro.sim.base import SimilarityFunction


class GreedyTopKSearch:
    """Top-k by greedy (suboptimal) matching score.

    Candidate generation is identical to Koios/Baseline — the token
    stream plus the inverted index — so any result difference against
    exact search is attributable purely to greedy scoring.
    """

    def __init__(
        self,
        collection: SetCollection,
        token_index: TokenIndex,
        sim: SimilarityFunction,
        *,
        alpha: float = 0.8,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        self._collection = collection
        self._token_index = token_index
        self._sim = sim
        self._alpha = alpha
        self._inverted = InvertedIndex(collection)

    def candidate_ids(self, query: Iterable[str]) -> list[int]:
        """Every set with at least one element within alpha of the query."""
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        stream = TokenStream(
            query_set,
            self._token_index,
            self._alpha,
            collection_vocabulary=self._collection.vocabulary,
        )
        found: set[int] = set()
        for _, token, _ in stream:
            found.update(self._inverted.sets_containing(token))
        return sorted(found)

    def search(self, query: Iterable[str], k: int = 10) -> SearchResult:
        check_k(k)
        query_set = frozenset(query)
        candidates = self.candidate_ids(query_set)
        scored = [
            (
                set_id,
                greedy_semantic_overlap(
                    query_set, self._collection[set_id], self._sim, self._alpha
                ),
            )
            for set_id in candidates
        ]
        ranked = sorted(
            ((s, v) for s, v in scored if v > 0.0),
            key=lambda item: (-item[1], item[0]),
        )
        stats = SearchStats()
        stats.candidates = len(candidates)
        entries = [
            ResultEntry(
                set_id=set_id,
                name=self._collection.name_of(set_id),
                score=score,
                exact=False,  # greedy scores are lower bounds, not SO
                lower_bound=score,
                upper_bound=score,
            )
            for set_id, score in ranked[:k]
        ]
        return SearchResult(entries=entries, stats=stats, k=k)
