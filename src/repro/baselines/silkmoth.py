"""SilkMoth reimplementation — the fuzzy-set-search comparator (§VIII-B).

SilkMoth (Deng et al., PVLDB 2017) answers *threshold* related-set search
under maximum-matching semantics: find sets whose matching score with the
query reaches a threshold ``theta``. Its candidate generation builds
*signatures* from set elements — for Jaccard, a rarest-first prefix of
each element's q-gram set sized so that any two elements with similarity
>= alpha must share a signature gram — and probes an inverted index over
grams. Candidates then pass a cheap *check filter* (a many-to-one upper
bound on the matching score) before exact bipartite-matching verification.

The paper compares Koios against two adaptations:

* **SilkMoth-syntactic** — the full machinery: prefix signatures and the
  check filter, both of which are only valid for specific syntactic
  similarities (that specialization is exactly Koios's criticism);
* **SilkMoth-semantic** — the generic framework the original authors
  suggested: no similarity-specific filters, so every gram of every
  element is indexed and every candidate goes straight to verification.

Neither solves top-k: following §VIII-B, ``search_topk`` feeds SilkMoth
the true ``theta_k*`` (an *advantage*, since Koios has to converge to it)
and keeps a top-k priority queue over the threshold result.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.core.koios import ResultEntry, SearchResult, check_k
from repro.core.semantic_overlap import semantic_overlap
from repro.core.stats import SearchStats
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.sim.jaccard import QGramJaccardSimilarity, jaccard

SYNTACTIC = "syntactic"
SEMANTIC = "semantic"
_VARIANTS = (SYNTACTIC, SEMANTIC)


@dataclass
class SilkMothStats:
    """Work counters for one threshold search."""

    candidates: int = 0
    check_filtered: int = 0
    verified: int = 0


class SilkMothSearch:
    """Signature-based related-set search with matching semantics."""

    def __init__(
        self,
        collection: SetCollection,
        *,
        alpha: float = 0.8,
        q: int = 3,
        variant: str = SYNTACTIC,
    ) -> None:
        """
        Parameters
        ----------
        alpha:
            Element-similarity threshold; pairs below it contribute 0,
            matching the setup shared with Koios in §VIII-B.
        q:
            q-gram length of the element similarity (paper: 3).
        variant:
            ``"syntactic"`` (signatures + check filter) or ``"semantic"``
            (generic framework, no similarity-specific filters).
        """
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        if variant not in _VARIANTS:
            raise InvalidParameterError(
                f"variant must be one of {_VARIANTS}, got {variant!r}"
            )
        self._collection = collection
        self._alpha = alpha
        self._variant = variant
        self._sim = QGramJaccardSimilarity(q=q)
        self._gram_freq: Counter = Counter()
        for token in collection.vocabulary:
            self._gram_freq.update(self._sim.features(token))
        # gram -> [(set_id, element), ...]; signature grams only in the
        # syntactic variant, every gram in the semantic variant.
        self._gram_index: dict[str, list[tuple[int, str]]] = {}
        for set_id in collection.ids():
            for element in collection[set_id]:
                for gram in self._index_grams(element):
                    self._gram_index.setdefault(gram, []).append(
                        (set_id, element)
                    )

    @property
    def variant(self) -> str:
        return self._variant

    @property
    def similarity(self) -> QGramJaccardSimilarity:
        return self._sim

    # -- signatures ---------------------------------------------------------

    def signature(self, element: str) -> list[str]:
        """Rarest-first prefix of the element's grams.

        Prefix-filter principle: if ``jaccard(a, b) >= alpha`` then
        ``|f(a) & f(b)| >= ceil(alpha * |f(a)|)``, so the first
        ``|f(a)| - ceil(alpha*|f(a)|) + 1`` grams in a global order must
        intersect ``f(b)``. Ordering by ascending corpus frequency keeps
        posting lists short, as in SilkMoth.
        """
        grams = sorted(
            self._sim.features(element),
            key=lambda g: (self._gram_freq[g], g),
        )
        required = math.ceil(self._alpha * len(grams))
        prefix_len = len(grams) - required + 1
        return grams[: max(1, prefix_len)]

    def _index_grams(self, element: str) -> Iterable[str]:
        if self._variant == SYNTACTIC:
            return self.signature(element)
        return self._sim.features(element)

    # -- search ---------------------------------------------------------

    def candidate_edges(
        self, query: frozenset[str]
    ) -> tuple[dict[int, dict[str, float]], SilkMothStats]:
        """Candidate sets and their thresholded query-element edges.

        Returns ``set_id -> {query_element: best similarity}`` over
        colliding element pairs (pairs that collide in no gram have
        similarity < alpha by the prefix principle and contribute 0).
        """
        stats = SilkMothStats()
        best: dict[int, dict[str, float]] = {}
        scored: dict[tuple[str, str], float] = {}
        for q_element in query:
            probe_grams = (
                self.signature(q_element)
                if self._variant == SYNTACTIC
                else self._sim.features(q_element)
            )
            q_feats = self._sim.features(q_element)
            postings: set[tuple[int, str]] = set()
            for gram in probe_grams:
                postings.update(self._gram_index.get(gram, ()))
            for set_id, element in postings:
                if element == q_element:
                    score = 1.0
                else:
                    key = (q_element, element)
                    score = scored.get(key)
                    if score is None:
                        score = jaccard(q_feats, self._sim.features(element))
                        scored[key] = score
                    if score < self._alpha:
                        continue
                per_set = best.setdefault(set_id, {})
                if score > per_set.get(q_element, 0.0):
                    per_set[q_element] = score
        stats.candidates = len(best)
        return best, stats

    def search_threshold(
        self, query: Iterable[str], theta: float
    ) -> tuple[list[tuple[int, float]], SilkMothStats]:
        """All sets with matching score >= ``theta`` and their scores."""
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        edges, stats = self.candidate_edges(query_set)
        results: list[tuple[int, float]] = []
        for set_id, per_query in edges.items():
            if self._variant == SYNTACTIC:
                # Check filter: the many-to-one bound (each query element
                # takes its best colliding partner, ignoring one-to-one
                # conflicts) dominates the true matching score.
                upper = sum(per_query.values())
                if upper < theta:
                    stats.check_filtered += 1
                    continue
            score = semantic_overlap(
                query_set,
                self._collection[set_id],
                self._sim,
                self._alpha,
            )
            stats.verified += 1
            if score >= theta:
                results.append((set_id, score))
        results.sort(key=lambda item: (-item[1], item[0]))
        return results, stats

    def search_topk(
        self, query: Iterable[str], k: int, theta_star: float
    ) -> SearchResult:
        """Top-k via threshold search at the (given) true ``theta_k*``.

        Exactly the §VIII-B adaptation: run at ``theta_star`` and keep a
        top-k heap. Ties at ``theta_star`` are cut arbitrarily, like the
        paper's Definition 2 allows.
        """
        check_k(k)
        matches, silk_stats = self.search_threshold(query, theta_star)
        heap: list[tuple[float, int]] = []
        for set_id, score in matches:
            heapq.heappush(heap, (score, -set_id))
            if len(heap) > k:
                heapq.heappop(heap)
        ranked = sorted(
            ((-neg_id, score) for score, neg_id in heap),
            key=lambda item: (-item[1], item[0]),
        )
        stats = SearchStats()
        stats.candidates = silk_stats.candidates
        stats.em_full = silk_stats.verified
        entries = [
            ResultEntry(
                set_id=set_id,
                name=self._collection.name_of(set_id),
                score=score,
                exact=True,
                lower_bound=score,
                upper_bound=score,
            )
            for set_id, score in ranked
        ]
        return SearchResult(entries=entries, stats=stats, k=k)
