"""The paper's Baseline and Baseline+ searchers (§VIII-A4).

The Baseline uses the token stream only for candidate generation (any set
with at least one element of similarity >= alpha to some query element)
and then computes the exact bipartite matching of *every* candidate.
Baseline+ additionally activates the iUB-Filter during refinement — the
paper needs this to make WDC feasible at all. Both are expressed as the
shared engine under :class:`~repro.core.config.FilterConfig` presets, so
response-time comparisons against Koios measure exactly the filters, not
implementation differences.

``BruteForceSearcher`` is stricter still: it scores every set in the
collection (no index at all) and is the ground-truth oracle for tests.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.config import FilterConfig
from repro.core.koios import (
    KoiosSearchEngine,
    ResultEntry,
    SearchResult,
    check_k,
)
from repro.core.semantic_overlap import semantic_overlap
from repro.core.stats import SearchStats
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.index.base import TokenIndex
from repro.sim.base import SimilarityFunction


class ExhaustiveBaseline(KoiosSearchEngine):
    """The paper's Baseline: stream candidates, verify all of them."""

    def __init__(
        self,
        collection: SetCollection,
        token_index: TokenIndex,
        sim: SimilarityFunction,
        *,
        alpha: float = 0.8,
        use_iub: bool = False,
    ) -> None:
        """``use_iub=True`` yields Baseline+."""
        config = (
            FilterConfig.baseline_plus() if use_iub else FilterConfig.baseline()
        )
        super().__init__(
            collection,
            token_index,
            sim,
            alpha=alpha,
            config=config,
        )


class BruteForceSearcher:
    """Index-free exact top-k by scoring every set — the test oracle.

    Deliberately simple: one Hungarian matching per collection set, a
    sort, a prefix. Quadratic-ish and slow, and that is the point.
    """

    def __init__(
        self,
        collection: SetCollection,
        sim: SimilarityFunction,
        *,
        alpha: float = 0.8,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        self._collection = collection
        self._sim = sim
        self._alpha = alpha

    def scores(self, query: Iterable[str]) -> dict[int, float]:
        """Exact ``SO(Q, C)`` for every set id in the collection."""
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        return {
            set_id: semantic_overlap(
                query_set, self._collection[set_id], self._sim, self._alpha
            )
            for set_id in self._collection.ids()
        }

    def search(self, query: Iterable[str], k: int = 10) -> SearchResult:
        """Top-k among sets with non-zero semantic overlap (Definition 2)."""
        check_k(k)
        all_scores = self.scores(query)
        ranked = sorted(
            (
                (set_id, score)
                for set_id, score in all_scores.items()
                if score > 0.0
            ),
            key=lambda item: (-item[1], item[0]),
        )
        stats = SearchStats()
        stats.candidates = len(ranked)
        stats.em_full = len(all_scores)
        entries = [
            ResultEntry(
                set_id=set_id,
                name=self._collection.name_of(set_id),
                score=score,
                exact=True,
                lower_bound=score,
                upper_bound=score,
            )
            for set_id, score in ranked[:k]
        ]
        return SearchResult(entries=entries, stats=stats, k=k)
