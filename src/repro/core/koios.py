"""The Koios search facade.

:class:`KoiosSearchEngine` ties the pieces together exactly as Fig. 2 of
the paper sketches: the token stream ``Ie`` (backed by a pluggable vector
or Jaccard index), the inverted index ``Is``, the refinement phase
(Algorithm 1), the post-processing phase (Algorithm 2), and the optional
random partitioning with a shared global ``theta_lb`` (§VI).

A search drains the token stream once, replays it per partition, runs
refinement + post-processing per partition, resolves the exact semantic
overlap of any set accepted without matching, and merge-sorts the
per-partition top-k lists into the final result.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.config import FilterConfig
from repro.core.fastpath import (
    ColumnarPartition,
    drain_stream,
    refine_columnar,
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
    num_partitions:
        Random partitions processed with a shared ``theta_lb`` (§VI).
    config:
        Filter switches; defaults to full Koios.
    parallel_partitions:
        Process partitions concurrently on a thread pool, as the paper
        does on its 64-core testbed. Results are identical either way;
        only wall-clock time and the work-saving effect of the shared
        ``theta_lb`` (fast partitions pruning slow ones early) change.
    set_ids:
        Restrict the searchable repository to these set ids (the full
        collection object is still shared, so ids, names, and vocabulary
        stay global). The engine pool uses this to keep one warm engine
        per shard of the repository.
    inverted_factory:
        Called with each partition's set ids to produce its inverted
        index instead of re-indexing the collection. The store layer
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
        num_partitions: int = 1,
        partition_seed: int = 0,
        config: FilterConfig | None = None,
        parallel_partitions: bool = False,
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
        self._parallel_partitions = parallel_partitions
        within = None if set_ids is None else list(set_ids)
        if within is not None and not within:
            raise InvalidParameterError("set_ids may not be empty")
        partitions = collection.partition(
            num_partitions, seed=partition_seed, within=within
        )
        partitions = [ids for ids in partitions if ids]
        if inverted_factory is not None:
            self._inverted = [inverted_factory(ids) for ids in partitions]
        else:
            self._inverted = [
                InvertedIndex(collection, ids) for ids in partitions
            ]
        self._num_sets = sum(len(ids) for ids in partitions)
        self._index_bytes = sum(index.nbytes() for index in self._inverted)
        # Columnar context: the token table plus one CSR view per
        # partition. Built here, at the state the indexes were built
        # at, so that :meth:`advance` carries it forward from a known
        # point (a hot swap advances engines, it does not build them).
        table = token_table_for(collection)
        self._columnar_ctx: tuple = (
            table,
            [ColumnarPartition.build(index, table) for index in self._inverted],
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
    def num_partitions(self) -> int:
        return len(self._inverted)

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
        index is not a single advancing delta view); the caller
        rebuilds it instead. Not safe concurrently with searches: the
        engine pool calls this under its write lock.
        """
        if len(self._inverted) != 1 or not hasattr(
            self._inverted[0], "advance"
        ):
            return False
        index = self._inverted[0]
        dead, born = index.advance(new_ids)
        self._num_sets += len(born) - len(dead)
        self._index_bytes = index.nbytes()
        old_table, (partition,) = self._columnar_ctx
        table = token_table_for(self._collection)
        self._columnar_ctx = (
            table, [partition.advanced(old_table, table, dead, born)]
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
        return drain_stream(
            query_set,
            self._token_index,
            self._check_alpha(alpha),
            vocabulary=self._collection.vocabulary,
            table=token_table_for(self._collection),
        )

    def _check_alpha(self, alpha: float | None) -> float:
        if alpha is None:
            return self._alpha
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        return alpha

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
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        alpha = self._check_alpha(alpha)

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
        # of any partition's schedule: fill it — and group it by token
        # for verification-matrix seeding — once per search.
        with traced_phase(stats.timer, REFINEMENT):
            sim_cache = sim_cache_from_stream(stream)
            cache_by_token = index_cache_by_token(sim_cache)
        columnar_ctx = self._columnar_ctx
        verified: list[VerifiedEntry] = []
        timed_out = False
        partition_stats = [SearchStats() for _ in self._inverted]

        def run_partition(position: int) -> list[VerifiedEntry]:
            return self._search_partition(
                query_set,
                k,
                alpha,
                stream,
                position,
                shared,
                sim_cache,
                partition_stats[position],
                deadline,
                columnar_ctx,
                cache_by_token,
            )

        try:
            if self._parallel_partitions and len(self._inverted) > 1:
                with ThreadPoolExecutor(
                    max_workers=len(self._inverted)
                ) as pool:
                    for entries in pool.map(
                        run_partition, range(len(self._inverted))
                    ):
                        verified.extend(entries)
            else:
                for position in range(len(self._inverted)):
                    verified.extend(run_partition(position))
        except SearchTimeout:
            timed_out = True
        for part_stats in partition_stats:
            stats.merge(part_stats)

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
            partition_stats=partition_stats,
        )

    # -- internals --------------------------------------------------------

    def _search_partition(
        self,
        query: frozenset[str],
        k: int,
        alpha: float,
        stream: MaterializedTokenStream,
        position: int,
        shared: GlobalThreshold,
        sim_cache: dict[tuple[str, str], float],
        stats: SearchStats,
        deadline: float | None,
        columnar_ctx: tuple,
        cache_by_token: dict[str, list[tuple[str, float]]],
    ) -> list[VerifiedEntry]:
        """Refinement + post-processing of one partition."""
        llb = TopKList(k)
        theta = ThetaLB(llb, shared)
        table, partitions = columnar_ctx
        with traced_phase(stats.timer, REFINEMENT):
            output = refine_columnar(
                query,
                stream,
                partitions[position],
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
                partitions[position],
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
        """Merge per-partition lists, optionally resolving inexact scores.

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
