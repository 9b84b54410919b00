"""The token stream ``Ie`` (§IV).

``Ie`` merges, for every query element ``q``, the index's descending
similarity stream over the vocabulary ``D`` into one global stream of
``(q, token, sim)`` tuples in non-increasing ``sim`` order. It is
realized exactly as in the paper: one shared token index ``I`` plus a
priority queue ``P`` of size ``|Q|`` holding the next most similar unseen
token per query element; popping the top refills only the popped query
element's stream.

Two paper-mandated details:

* the stream stops per query element as soon as similarity falls below
  ``alpha``;
* on the very first probe, a query element yields *itself* with
  similarity 1.0 when it occurs in the collection vocabulary — this is
  how Koios initializes bounds with the vanilla overlap and how
  out-of-vocabulary tokens still contribute exact matches (§V).
"""

from __future__ import annotations

import heapq
import itertools
from typing import AbstractSet, Iterable, Iterator

from repro.errors import EmptyQueryError, InvalidParameterError
from repro.index.base import TokenIndex
from repro.utils.memory import FLOAT_BYTES, container_bytes, tuple_bytes

#: One stream element: (query_token, vocabulary_token, similarity).
StreamTuple = tuple[str, str, float]


class TokenStream:
    """Merged descending-similarity stream over all query elements."""

    def __init__(
        self,
        query_tokens: Iterable[str],
        index: TokenIndex,
        alpha: float,
        *,
        collection_vocabulary: AbstractSet[str] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        query_tokens:
            The query set ``Q`` (duplicates collapse).
        index:
            The shared per-token similarity index ``I``.
        alpha:
            Element similarity threshold; tuples below it are never
            emitted.
        collection_vocabulary:
            The vocabulary ``D`` of the searched collection. Used for the
            self-match rule and to drop index results that are not in the
            collection (relevant when one index serves many partitions).
        """
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        query = sorted(set(query_tokens))
        if not query:
            raise EmptyQueryError("query set is empty")
        self._alpha = alpha
        self._vocab = collection_vocabulary
        self._index = index
        self._tiebreak = itertools.count()
        # heap of (-sim, tiebreak, q_token, vocab_token, source_iterator)
        self._heap: list[tuple[float, int, str, str, Iterator[tuple[str, float]]]] = []
        self.tuples_emitted = 0
        for q_token in query:
            self._refill(q_token, self._per_query_stream(q_token))

    def _per_query_stream(self, q_token: str) -> Iterator[tuple[str, float]]:
        """Descending stream for one query element, with the self-match
        rule applied and restricted to the collection vocabulary."""
        if self._vocab is None or q_token in self._vocab:
            yield q_token, 1.0
        for token, sim in self._index.stream(q_token):
            if token == q_token:
                continue  # self-match already emitted above
            if self._vocab is not None and token not in self._vocab:
                continue
            yield token, sim

    def _refill(
        self, q_token: str, source: Iterator[tuple[str, float]]
    ) -> None:
        """Buffer the next tuple of one query element's stream, unless the
        stream is exhausted or dropped below alpha."""
        entry = next(source, None)
        if entry is None:
            return
        token, sim = entry
        if sim < self._alpha:
            return  # descending stream: nothing below alpha matters
        heapq.heappush(
            self._heap, (-sim, next(self._tiebreak), q_token, token, source)
        )

    def __iter__(self) -> Iterator[StreamTuple]:
        return self

    def __next__(self) -> StreamTuple:
        if not self._heap:
            raise StopIteration
        neg_sim, _, q_token, token, source = heapq.heappop(self._heap)
        self._refill(q_token, source)
        self.tuples_emitted += 1
        return q_token, token, -neg_sim


class MaterializedTokenStream:
    """A fully drained token stream, replayable any number of times.

    Partitioned search (§VI) runs one Koios instance per partition; all
    instances consume the *same* tuple sequence, so the stream is drained
    once and replayed per partition instead of re-probing the index.

    A drained stream records the query tokens and ``alpha`` it was drained
    for. The serving layer drains one stream for the *union* of a
    micro-batch's query sets and hands each request its
    :meth:`restrict`-ed view, so a whole batch costs one index drain.
    """

    def __init__(
        self,
        tuples: list[StreamTuple],
        *,
        query_tokens: AbstractSet[str] | None = None,
        alpha: float | None = None,
        version: object | None = None,
    ) -> None:
        self._tuples = tuples
        self.query_tokens = (
            None if query_tokens is None else frozenset(query_tokens)
        )
        self.alpha = alpha
        #: Collection version at drain time (stamped by the serving
        #: layer). A backend refuses to replay a stream drained at a
        #: different version than it is about to search — the drained
        #: vocabulary filter would not match the live collection.
        self.version = version
        # Lazy derived views (never pickled; see __getstate__):
        # per-query-element tuple positions, and interned column arrays.
        self._positions: dict[str, "object"] | None = None
        self._columns: tuple[object, list[str], tuple] | None = None

    # Derived caches are process-local: the position index is cheap to
    # rebuild, and the column arrays are keyed by the *identity* of a
    # TokenTable that does not travel with the stream (cluster
    # coordinators ship drained streams to worker processes).
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_positions"] = None
        state["_columns"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

    @classmethod
    def drain(
        cls,
        query_tokens: Iterable[str],
        index: TokenIndex,
        alpha: float,
        *,
        collection_vocabulary: AbstractSet[str] | None = None,
    ) -> "MaterializedTokenStream":
        query = frozenset(query_tokens)
        stream = TokenStream(
            query,
            index,
            alpha,
            collection_vocabulary=collection_vocabulary,
        )
        return cls(list(stream), query_tokens=query, alpha=alpha)

    def covers(self, query_tokens: AbstractSet[str], alpha: float) -> bool:
        """Whether this stream can serve a search for ``query_tokens`` at
        ``alpha``: it must have been drained for a superset of the query
        at exactly the same threshold (a looser alpha would smuggle
        below-threshold edges into refinement)."""
        if self.query_tokens is None or self.alpha is None:
            return False
        return self.alpha == alpha and query_tokens <= self.query_tokens

    def _position_index(self) -> dict[str, "object"]:
        """Lazy ``query_token -> ascending tuple positions`` index.

        Built once per drained stream (one O(n) pass); every
        :meth:`restrict` after that gathers positions instead of
        scanning the full union stream — the serving layer restricts a
        micro-batch's union drain once per request, so per-request cost
        drops from O(union stream) to O(restricted stream).
        """
        if self._positions is None:
            import numpy as np

            grouped: dict[str, list[int]] = {}
            for position, (q_token, _, _) in enumerate(self._tuples):
                grouped.setdefault(q_token, []).append(position)
            self._positions = {
                q_token: np.asarray(positions, dtype=np.int64)
                for q_token, positions in grouped.items()
            }
        return self._positions

    def restrict(
        self, query_tokens: AbstractSet[str]
    ) -> "MaterializedTokenStream":
        """The sub-stream of tuples belonging to ``query_tokens``.

        A subsequence of a non-increasing sequence is non-increasing, and
        per query element the retained tuples are exactly what a solo
        drain of that element produces — so the restriction is a valid
        stream for any query that is a subset of ``query_tokens``.
        """
        import numpy as np

        wanted = frozenset(query_tokens)
        if self.query_tokens is not None and wanted >= self.query_tokens:
            return self
        positions_by_q = self._position_index()
        parts = [
            positions_by_q[q_token]
            for q_token in sorted(wanted)
            if q_token in positions_by_q
        ]
        if parts:
            positions = np.sort(np.concatenate(parts))
            tuples = [self._tuples[i] for i in positions.tolist()]
        else:
            positions = np.zeros(0, dtype=np.int64)
            tuples = []
        restricted = MaterializedTokenStream(
            tuples,
            query_tokens=wanted,
            alpha=self.alpha,
            version=self.version,
        )
        restricted._adopt_restricted_columns(self, positions, wanted)
        return restricted

    def _adopt_restricted_columns(
        self, parent: "MaterializedTokenStream", positions, wanted
    ) -> None:
        """Slice the parent's cached column arrays for a restriction
        (query indexes are remapped to the restricted sorted query)."""
        if parent._columns is None:
            return
        import numpy as np

        table, parent_query, (q_col, t_col, s_col) = parent._columns
        sub_query = sorted(wanted)
        remap = np.full(len(parent_query), -1, dtype=np.int64)
        sub_index = {q_token: i for i, q_token in enumerate(sub_query)}
        for i, q_token in enumerate(parent_query):
            remap[i] = sub_index.get(q_token, -1)
        self._columns = (
            table,
            sub_query,
            (remap[q_col[positions]], t_col[positions], s_col[positions]),
        )

    def attach_columns(self, table, query_sorted: list[str], columns) -> None:
        """Adopt interned column arrays ``(q_index, token_id, sim)``
        aligned with the tuple list (the columnar drain produces both
        representations in one pass). The cache holds the table object
        itself — identity-compared on read, so a recycled ``id()`` can
        never alias a stale encoding."""
        self._columns = (table, list(query_sorted), columns)

    def columns(self, table, query_sorted: list[str]):
        """Interned column arrays for the columnar refinement engine.

        Returns ``(q_index, token_id, sim)`` NumPy arrays aligned with
        the tuple order: ``q_index`` indexes into ``query_sorted``,
        ``token_id`` into ``table`` (-1 for tokens outside it). Cached
        per table/query pair — every partition and shard replaying this
        stream shares one encoding pass.
        """
        cached = self._columns
        if (
            cached is not None
            and cached[0] is table
            and cached[1] == query_sorted
        ):
            return cached[2]
        import numpy as np

        q_index = {q_token: i for i, q_token in enumerate(query_sorted)}
        count = len(self._tuples)
        q_col = np.fromiter(
            (q_index[t[0]] for t in self._tuples), dtype=np.int64, count=count
        )
        token_id = table.id_of
        t_col = np.fromiter(
            (token_id(t[1]) for t in self._tuples), dtype=np.int64, count=count
        )
        s_col = np.fromiter(
            (t[2] for t in self._tuples), dtype=np.float64, count=count
        )
        columns = (q_col, t_col, s_col)
        self._columns = (table, list(query_sorted), columns)
        return columns

    def nbytes(self) -> int:
        """Estimated footprint: one 3-tuple and one float per stream
        entry (token strings belong to the query and the vocabulary),
        plus the interned column arrays once attached."""
        size = container_bytes(self._tuples, tuple_bytes(3) + FLOAT_BYTES)
        if self._columns is not None:
            size += sum(int(column.nbytes) for column in self._columns[2])
        return size

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)
