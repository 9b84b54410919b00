"""Top-k search under the many-to-one semantic overlap (§X extension).

The paper's conclusion sketches relaxing the one-to-one matching so
several query elements may map onto one candidate element (``United
States of America`` and ``United States`` both onto ``USA``). Under that
relaxation the measure decomposes per query element:

    MO(Q, C) = sum_{q in Q} max_{c in C} sim_alpha(q, c)

No bipartite matching is needed, and the whole top-k search runs off the
token stream and the inverted index alone: the first time the stream
pairs ``q`` with a token of ``C``, that similarity *is* ``q``'s best
contribution to ``C`` (the stream is descending). Scores therefore
complete exactly when the stream is drained, and the search needs no
verification phase at all — a concrete payoff of the relaxed measure.

``MO`` upper-bounds ``SO`` (any one-to-one matching is a many-to-one
mapping), so this searcher also doubles as a cheap screening stage for
the exact engine.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.koios import ResultEntry, SearchResult, check_k
from repro.core.stats import REFINEMENT, SearchStats
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.index.base import TokenIndex
from repro.index.inverted import InvertedIndex
from repro.index.token_stream import TokenStream


class ManyToOneSearchEngine:
    """Exact top-k search under the many-to-one overlap ``MO``."""

    def __init__(
        self,
        collection: SetCollection,
        token_index: TokenIndex,
        *,
        alpha: float = 0.8,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        if len(collection) == 0:
            raise InvalidParameterError("cannot search an empty collection")
        self._collection = collection
        self._token_index = token_index
        self._alpha = alpha
        self._inverted = InvertedIndex(collection)

    @property
    def alpha(self) -> float:
        return self._alpha

    def scores(self, query: Iterable[str]) -> dict[int, float]:
        """Exact ``MO(Q, C)`` for every candidate set.

        One pass over the token stream: per (query element, candidate
        set) pair only the *first* edge counts — it is the maximum, by
        the stream's descending order.
        """
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        stream = TokenStream(
            query_set,
            self._token_index,
            self._alpha,
            collection_vocabulary=self._collection.vocabulary,
        )
        totals: dict[int, float] = {}
        claimed: set[tuple[str, int]] = set()
        for q_token, token, similarity in stream:
            for set_id in self._inverted.sets_containing(token):
                key = (q_token, set_id)
                if key in claimed:
                    continue
                claimed.add(key)
                totals[set_id] = totals.get(set_id, 0.0) + similarity
        return totals

    def search(self, query: Iterable[str], k: int = 10) -> SearchResult:
        """The k sets with the largest many-to-one overlap."""
        check_k(k)
        stats = SearchStats()
        with stats.timer.phase(REFINEMENT):
            totals = self.scores(query)
        stats.candidates = len(totals)
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
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
