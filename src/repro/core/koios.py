"""The Koios search facade.

:class:`KoiosSearchEngine` ties the pieces together exactly as Fig. 2 of
the paper sketches: the token stream ``Ie`` (backed by a pluggable vector
or Jaccard index), the inverted index ``Is``, the refinement phase
(Algorithm 1) and the post-processing phase (Algorithm 2).

An engine searches one partition of the repository: a search drains the
token stream (or replays a given one), runs refinement + post-processing,
resolves the exact semantic overlap of any set accepted without
matching, and ranks the result. §VI's random partitions sharing one
global ``theta_lb`` are the shards of
:class:`~repro.service.pool.EnginePool`, one engine each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.config import FilterConfig
from repro.core.fastpath import (
    ColumnarPartition,
    materialize_stream,
    refine_columnar,
    resolve_alpha,
    sim_cache_from_stream,
)
from repro.core.fastpath_verify import (
    ColumnarVerifier,
    supports_columnar_verify,
)
from repro.core.postprocessing import (
    VerifiedEntry,
    cache_view,
    index_cache_by_token,
    postprocess,
)
from repro.index.interning import token_table_for
from repro.obs import traced_phase
from repro.core.semantic_overlap import semantic_overlap_matching
from repro.core.stats import POSTPROCESSING, REFINEMENT, SearchStats
from repro.core.topk import GlobalThreshold, ThetaLB, TopKList
from repro.datasets.collection import SetCollection
from repro.errors import (
    EmptyQueryError,
    InvalidParameterError,
    SearchTimeout,
)
from repro.index.base import TokenIndex
from repro.index.inverted import InvertedIndex
from repro.index.token_stream import MaterializedTokenStream
from repro.sim.base import SimilarityFunction
from repro.utils.memory import FLOAT_BYTES, container_bytes, tuple_bytes

#: One ``(query_token, token) -> similarity`` cache entry: the key tuple
#: and the float (the strings belong to the query and the vocabulary).
_SIM_CACHE_ENTRY_BYTES = tuple_bytes(2) + FLOAT_BYTES


def check_k(k: int) -> None:
    """Refuse a result size that is not an integer >= 1 (``bool`` is
    not a size), before a search does any work."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidParameterError(
            f"k must be an integer, got {type(k).__name__}"
        )
    if k < 1:
        raise InvalidParameterError("k must be >= 1")


def _owned_ids(
    collection: SetCollection, set_ids: Iterable[int] | None
) -> list[int]:
    """The set ids an engine searches: every live id, or ``set_ids``
    once checked to be distinct integer slots of ``collection``."""
    if set_ids is None:
        return np.flatnonzero(collection.alive_mask).tolist()
    ids = np.asarray(list(set_ids))
    if ids.size == 0:
        raise InvalidParameterError("set_ids may not be empty")
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise InvalidParameterError("set_ids must be integer set ids")
    outside = (ids < 0) | (ids >= collection.num_slots)
    if outside.any():
        raise InvalidParameterError(
            f"set_ids holds an out-of-range set id: {int(ids[outside][0])}"
        )
    if np.unique(ids).size != ids.size:
        raise InvalidParameterError("set_ids may not repeat a set id")
    return ids.tolist()


@dataclass(frozen=True)
class ResultEntry:
    """One set in a top-k result."""

    set_id: int
    name: str
    score: float
    exact: bool
    lower_bound: float
    upper_bound: float


@dataclass
class SearchResult:
    """Outcome of one top-k search.

    ``entries`` are in descending score order (set id breaks ties). When
    ``timed_out`` is True the search exceeded its time budget and
    ``entries`` holds whatever had been verified by then — the way the
    paper reports timed-out queries separately rather than crashing.

    ``degraded`` marks a *partial-coverage* answer: a distributed
    backend could not reach any replica of one or more partitions, so
    ``entries`` is exact over the partitions that answered but may miss
    sets from the silent ones. ``coverage`` is then
    ``(partitions answered, partitions total)``; both stay at their
    defaults on every fully-covered search.

    ``partition_stats`` holds one :class:`SearchStats` per partition
    searched: ``[stats]`` for an engine, one per shard for a pool.
    """

    entries: list[ResultEntry]
    stats: SearchStats
    k: int
    timed_out: bool = False
    partition_stats: list[SearchStats] = field(default_factory=list)
    degraded: bool = False
    coverage: tuple[int, int] | None = None

    def ids(self) -> list[int]:
        return [entry.set_id for entry in self.entries]

    def scores(self) -> list[float]:
        return [entry.score for entry in self.entries]

    @property
    def theta_k(self) -> float:
        """The k-th (smallest returned) semantic overlap, 0.0 if empty."""
        if not self.entries:
            return 0.0
        return self.entries[-1].score


class KoiosSearchEngine:
    """Top-k semantic overlap search over a :class:`SetCollection`.

    Parameters
    ----------
    collection:
        The repository ``L``.
    token_index:
        Any :class:`~repro.index.base.TokenIndex` streaming vocabulary
        tokens by descending similarity to a probe (exact cosine index,
        MinHash LSH, ...). Koios is generic over this choice (§IV).
    sim:
        The element similarity ``sim`` of Definition 1. It must agree
        with ``token_index`` (the index streams *this* similarity).
    alpha:
        Element similarity threshold in (0, 1].
    config:
        Filter switches; defaults to full Koios.
    set_ids:
        Restrict the searchable repository to these set ids (the full
        collection object is still shared, so ids, names, and vocabulary
        stay global). The engine pool uses this to keep one warm engine
        per shard of the repository.
    inverted_factory:
        Called with the engine's set ids to produce its inverted index
        instead of re-indexing the collection. The store layer
        passes delta-maintained indexes (snapshot postings, mutable
        overlays) through here, so engine construction adopts arrays
        instead of re-indexing the collection.
    """

    def __init__(
        self,
        collection: SetCollection,
        token_index: TokenIndex,
        sim: SimilarityFunction,
        *,
        alpha: float = 0.8,
        config: FilterConfig | None = None,
        set_ids: Iterable[int] | None = None,
        inverted_factory: Callable[[Sequence[int]], InvertedIndex]
        | None = None,
    ) -> None:
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        if len(collection) == 0:
            raise InvalidParameterError("cannot search an empty collection")
        self._collection = collection
        self._token_index = token_index
        self._sim = sim
        self._alpha = alpha
        self._config = config or FilterConfig.koios()
        ids = _owned_ids(collection, set_ids)
        if inverted_factory is not None:
            self._index = inverted_factory(ids)
        else:
            self._index = InvertedIndex(collection, ids)
        self._num_sets = len(ids)
        self._index_bytes = self._index.nbytes()
        # Columnar context: the token table plus the partition's CSR
        # view. Built here, at the state the index was built at, so
        # that :meth:`advance` carries it forward from a known point (a
        # hot swap advances engines, it does not build them).
        table = token_table_for(collection)
        self._columnar_ctx: tuple = (
            table, ColumnarPartition.build(self._index, table)
        )

    @property
    def collection(self) -> SetCollection:
        return self._collection

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def config(self) -> FilterConfig:
        return self._config

    @property
    def num_sets(self) -> int:
        """Sets this engine searches (as of its last :meth:`advance`)."""
        return self._num_sets

    def advance(self, new_ids: Sequence[int]) -> bool:
        """Carry the engine across mutations of its collection.

        ``new_ids`` are the id slots allocated since the engine was
        built (or last advanced) that it now owns. Its delta index takes
        them over and reports what it lost and gained; the columnar
        partition is advanced by exactly that delta — O(|delta|) work
        and one copy of the partition's posting array, not a rebuild —
        and lands array-equal to a freshly built engine's. Returns
        False, leaving the engine untouched, when it cannot advance (its
        index is not an advancing delta view); the caller rebuilds it
        instead. Not safe concurrently with searches: the engine pool
        calls this under its write lock.
        """
        index = self._index
        if not hasattr(index, "advance"):
            return False
        dead, born = index.advance(new_ids)
        self._num_sets += len(born) - len(dead)
        self._index_bytes = index.nbytes()
        old_table, partition = self._columnar_ctx
        table = token_table_for(self._collection)
        self._columnar_ctx = (
            table, partition.advanced(old_table, table, dead, born)
        )
        return True

    def drain(
        self, query: Iterable[str], *, alpha: float | None = None
    ) -> MaterializedTokenStream:
        """Drain the token stream ``Ie`` for ``query`` without searching.

        The serving layer calls this once per micro-batch (on the union
        of the batch's query sets) and replays :meth:`MaterializedTokenStream.restrict`-ed
        views through :meth:`search`'s ``stream`` parameter, so one index
        drain serves many requests.
        """
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        return materialize_stream(
            self._token_index,
            self._collection,
            query_set,
            resolve_alpha(self._alpha, alpha, self._token_index),
        )

    def search(
        self,
        query: Iterable[str],
        k: int = 10,
        *,
        alpha: float | None = None,
        resolve_scores: bool = True,
        time_budget: float | None = None,
        stream: MaterializedTokenStream | None = None,
        shared_threshold: GlobalThreshold | None = None,
    ) -> SearchResult:
        """Find the top-k sets by semantic overlap with ``query``.

        Parameters
        ----------
        query:
            The query set ``Q`` (duplicates collapse).
        k:
            Result size.
        alpha:
            Per-call element similarity threshold; defaults to the
            engine's constructor ``alpha``. The engine's indexes are
            alpha-independent, so a warm engine serves any threshold.
        resolve_scores:
            Sets accepted by the No-EM filter carry only score bounds;
            when True (default) their exact overlap is computed at the
            end so the merged ranking is by true score. False keeps the
            paper's lazy behaviour and reports certified lower bounds.
        time_budget:
            Wall-clock budget in seconds; on expiry a partial result
            flagged ``timed_out`` is returned.
        stream:
            A pre-drained token stream to replay instead of draining the
            index again. It must cover the query at exactly this alpha
            (see :meth:`MaterializedTokenStream.covers`); a wider stream
            (e.g. a micro-batch union drain) is restricted automatically.
        shared_threshold:
            A cross-engine ``theta_lb`` (§VI). Shard engines of one pool
            searching the same query share one instance so any shard's
            verified scores prune work in the others.
        """
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        check_k(k)
        alpha = resolve_alpha(self._alpha, alpha, self._token_index)

        stats = SearchStats()
        deadline = (
            time.perf_counter() + time_budget
            if time_budget is not None
            else None
        )
        if stream is None:
            with traced_phase(stats.timer, REFINEMENT):
                stream = self.drain(query_set, alpha=alpha)
        else:
            if not stream.covers(query_set, alpha):
                raise InvalidParameterError(
                    "provided stream does not cover this query/alpha"
                )
            stream = stream.restrict(query_set)
        stats.memory.record("inverted_index", self._index_bytes)
        stats.memory.record("token_stream", stream.nbytes())

        shared = (
            shared_threshold if shared_threshold is not None
            else GlobalThreshold()
        )
        # The similarity cache is a property of the drained stream, not
        # of the pruning schedule: fill it — and group it by token for
        # verification-matrix seeding — once per search.
        with traced_phase(stats.timer, REFINEMENT):
            sim_cache = sim_cache_from_stream(stream)
            cache_by_token = index_cache_by_token(sim_cache)
        try:
            verified = self._refine_and_verify(
                query_set,
                k,
                alpha,
                stream,
                shared,
                sim_cache,
                stats,
                deadline,
                cache_by_token,
            )
            timed_out = False
        except SearchTimeout:
            verified, timed_out = [], True

        entries = self._rank(
            query_set,
            verified,
            k,
            alpha,
            resolve_scores and not timed_out,
            stats,
            cache_by_token,
        )
        return SearchResult(
            entries=entries,
            stats=stats,
            k=k,
            timed_out=timed_out,
            partition_stats=[stats],
        )

    # -- internals --------------------------------------------------------

    def _refine_and_verify(
        self,
        query: frozenset[str],
        k: int,
        alpha: float,
        stream: MaterializedTokenStream,
        shared: GlobalThreshold,
        sim_cache: dict[tuple[str, str], float],
        stats: SearchStats,
        deadline: float | None,
        cache_by_token: dict[str, list[tuple[str, float]]],
    ) -> list[VerifiedEntry]:
        """Refinement + post-processing (Algorithms 1 and 2); the
        oracle engine of the tests overrides this."""
        llb = TopKList(k)
        theta = ThetaLB(llb, shared)
        # Read once: a search sees one (table, partition) pair.
        table, partition = self._columnar_ctx
        with traced_phase(stats.timer, REFINEMENT):
            output = refine_columnar(
                query,
                stream,
                partition,
                table,
                theta,
                stats,
                self._config,
                sim_cache=sim_cache,
                deadline=deadline,
            )
        stats.memory.record("candidate_states", output.survivors.nbytes())
        stats.memory.record(
            "similarity_cache",
            container_bytes(output.sim_cache, _SIM_CACHE_ENTRY_BYTES),
        )
        stats.memory.record("topk_lb_list", llb.nbytes())
        # Verifications are answered from one batched matmul and one pass
        # over the partition's posting arrays instead of per-candidate
        # cache_view/build_graph calls. Similarities without an
        # embedding matrix are verified candidate by candidate.
        verifier = None
        if supports_columnar_verify(self._sim):
            verifier = ColumnarVerifier(
                query,
                self._collection,
                table,
                self._sim,
                alpha,
                partition,
            )
        with traced_phase(stats.timer, POSTPROCESSING):
            entries = postprocess(
                query,
                self._collection,
                output.survivors,
                self._sim,
                alpha,
                k,
                theta,
                stats,
                self._config,
                sim_cache=output.sim_cache,
                cache_by_token=cache_by_token,
                deadline=deadline,
                verifier=verifier,
            )
        return entries

    def _rank(
        self,
        query: frozenset[str],
        verified: list[VerifiedEntry],
        k: int,
        alpha: float,
        resolve: bool,
        stats: SearchStats,
        cache_by_token: dict[str, list[tuple[str, float]]],
    ) -> list[ResultEntry]:
        """Rank the verified sets, optionally resolving inexact scores.

        Resolution seeds the matching matrix from the same streamed
        similarity cache the in-phase verifications use, so a set's exact
        score is one deterministic float no matter which path resolved it
        — the property that lets the sharded engine pool merge per-shard
        results into byte-identical global rankings.
        """
        resolved: list[VerifiedEntry] = []
        with traced_phase(stats.timer, POSTPROCESSING):
            for entry in verified:
                if resolve and not entry.exact:
                    members = self._collection[entry.set_id]
                    result, _, _ = semantic_overlap_matching(
                        query,
                        members,
                        self._sim,
                        alpha,
                        cached_scores=cache_view(cache_by_token, members),
                    )
                    score = result.score
                    stats.resolution_em += 1
                    entry = VerifiedEntry(
                        set_id=entry.set_id,
                        score=score,
                        exact=True,
                        lower_bound=score,
                        upper_bound=score,
                    )
                resolved.append(entry)
        resolved.sort(key=lambda e: (-e.score, e.set_id))
        return [
            ResultEntry(
                set_id=e.set_id,
                name=self._collection.name_of(e.set_id),
                score=e.score,
                exact=e.exact,
                lower_bound=e.lower_bound,
                upper_bound=e.upper_bound,
            )
            for e in resolved[:k]
        ]
