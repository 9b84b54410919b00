"""A pool of warm, sharded Koios engines: §VI's partitioned search.

The repository is split once into ``shards`` random partitions (§VI's
scale-out scheme, the only place the code implements it); each shard gets
a long-lived :class:`~repro.core.koios.KoiosSearchEngine` whose inverted
index covers only that shard, while the collection object, token index,
and similarity function are shared — so set ids, names, and the
vocabulary stay global and per-shard results merge without any id
remapping.

One query is answered by replaying a single drained token stream through
every shard engine under one shared
:class:`~repro.core.topk.GlobalThreshold` (a shard that verifies strong
results early prunes work in the others, exactly the paper's
partitioned-search effect) and merge-sorting the per-shard top-k lists
with the :class:`~repro.core.topk.TopKList` machinery. The merged result
is the exact global top-k: every shard list is exact over its shard, and
any set a shard pruned was provably below the global ``theta_lb``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Hashable, Iterable, Iterator

import numpy as np

from repro.core.config import FilterConfig
from repro.core.fastpath import materialize_stream, resolve_alpha
from repro.core.koios import (
    KoiosSearchEngine,
    ResultEntry,
    SearchResult,
    check_k,
)
from repro.core.stats import REFINEMENT, SearchStats
from repro.core.topk import GlobalThreshold, TopKList
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.index.base import TokenIndex
from repro.index.interning import token_table_for
from repro.index.token_stream import MaterializedTokenStream
from repro.obs import Stopwatch, current_context, get_tracer, traced_phase
from repro.sim.base import SimilarityFunction
from repro.store.mutation import Mutation, apply_mutation


class ReadWriteLock:
    """Many concurrent readers or one exclusive writer, writer-priority.

    Searches read the pool (engines + live delta postings); mutations
    and hot-swaps write it. Without exclusion a long-running query could
    observe a half-applied mutation (some token posting lists updated,
    others not) — exactly the torn view the serving contract forbids.
    Writer priority keeps a steady query stream from starving mutations.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class EnginePool:
    """Warm shard engines over one collection, ready to serve queries.

    Parameters
    ----------
    collection:
        The repository ``L``.
    token_index:
        The shared per-token similarity index (alpha-independent).
    sim:
        The element similarity function.
    alpha:
        Default element similarity threshold; requests may override it
        per call.
    shards:
        Number of random shards (1 = a single warm engine).
    parallel_shards:
        Fan shard searches out on a thread pool instead of running them
        serially. Results are identical; only wall-clock changes.
    inverted_factory:
        Per-partition inverted-index factory forwarded to every shard
        engine (see :class:`~repro.core.koios.KoiosSearchEngine`). When
        omitted and the collection is a
        :class:`~repro.store.mutable.MutableSetCollection`, its delta
        factory is adopted automatically: shard engines are then
        *advanced* across mutations (see :meth:`refresh`) instead of
        being rebuilt.
    partition:
        ``(index, count)`` — serve only partition ``index`` of the
        repository split into ``count`` partitions under ``shard_seed``
        (the same deterministic split a ``count``-shard pool uses, so a
        fleet of ``count`` pools with distinct indexes covers exactly
        the layout one ``shards=count`` pool does). This is how each
        :mod:`repro.cluster` worker process owns its slice; ownership
        is a function of the set id alone
        (:meth:`~repro.datasets.collection.SetCollection.slot_assignment`),
        so every pool of the fleet agrees on who owns a newly inserted
        id and a delete moves no other set. A partition that happens to
        receive no live sets yields a pool that answers every search
        with an empty result.
    """

    def __init__(
        self,
        collection: SetCollection,
        token_index: TokenIndex,
        sim: SimilarityFunction,
        *,
        alpha: float = 0.8,
        shards: int = 1,
        shard_seed: int = 0,
        config: FilterConfig | None = None,
        parallel_shards: bool = False,
        inverted_factory=None,
        partition: tuple[int, int] | None = None,
    ) -> None:
        if shards < 1:
            raise InvalidParameterError("shards must be >= 1")
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        if partition is not None:
            part_index, part_count = partition
            if part_count < 1 or not (0 <= part_index < part_count):
                raise InvalidParameterError(
                    f"partition must be (index, count) with "
                    f"0 <= index < count, got {partition!r}"
                )
        self._token_index = token_index
        self._sim = sim
        self._alpha = alpha
        self._shards = shards
        self._shard_seed = shard_seed
        self._config = config
        self._reloads = 0
        self._hot_swaps = 0
        self._last_hot_swap_ms = 0.0
        self._inverted_factory = inverted_factory
        self._partition = partition
        self._lock = ReadWriteLock()
        self._executor = (
            ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-shard"
            )
            if parallel_shards and shards > 1
            else None
        )
        self._build(collection)

    def _build(self, collection: SetCollection) -> None:
        if len(collection) == 0:
            raise InvalidParameterError("cannot serve an empty collection")
        self._collection = collection
        #: One engine per shard, None for a shard that holds no live set.
        self._shard_engines: list[KoiosSearchEngine | None] = (
            [None] * self._shards
        )
        self._served_slots = 0
        self._adopt_slots()

    def _shard_of_slots(self) -> np.ndarray:
        """``int64[num_slots]``: the shard owning every id slot, -1 for
        slots of other pools' partitions: ``partition(count)[index]``
        split again into ``shards`` by a second, independent draw, as a
        function of the id."""
        collection = self._collection
        shard = collection.slot_assignment(
            self._shards,
            seed=self._shard_seed,
            nested=self._partition is not None,
        )
        if self._partition is not None:
            part_index, part_count = self._partition
            owner = collection.slot_assignment(
                part_count, seed=self._shard_seed
            )
            shard[owner != part_index] = -1
        return shard

    def _adopt_slots(self) -> bool:
        """Bring the shard engines up to the collection's live state:
        hand every id slot allocated since the last call to the engine
        of its shard, which advances by what changed. A shard that
        gains its first live set gets an engine built, one that loses
        its last is dropped. Returns False when an engine cannot
        advance (custom index factory); the caller rebuilds."""
        collection = self._collection
        first = self._served_slots
        fresh = np.arange(first, collection.num_slots)
        shard = self._shard_of_slots()[first:]
        alive = collection.alive_mask
        for position, engine in enumerate(self._shard_engines):
            ids = fresh[shard == position]
            if engine is None:
                ids = ids[alive[ids]]
                if ids.size:
                    engine = self._make_engine(ids.tolist())
            elif not engine.advance(ids):
                return False
            elif not engine.num_sets:
                engine = None
            self._shard_engines[position] = engine
        self._engines = [
            engine for engine in self._shard_engines if engine is not None
        ]
        self._served_slots = collection.num_slots
        self._served_live = len(collection)
        self._served_table = token_table_for(collection)
        self._built_collection_version = getattr(collection, "version", None)
        return True

    def _make_engine(self, set_ids: list[int]) -> KoiosSearchEngine:
        collection = self._collection
        factory = self._inverted_factory
        if factory is None and hasattr(collection, "delta_index"):
            factory = collection.delta_index
        return KoiosSearchEngine(
            collection,
            self._token_index,
            self._sim,
            alpha=self._alpha,
            config=self._config,
            set_ids=set_ids,
            inverted_factory=factory,
        )

    # -- bookkeeping -------------------------------------------------------

    @property
    def collection(self) -> SetCollection:
        return self._collection

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def num_shards(self) -> int:
        return len(self._engines)

    @property
    def partition(self) -> tuple[int, int] | None:
        return self._partition

    @property
    def version(self) -> Hashable:
        """The collection state cache keys embed.

        For an immutable collection this is the reload counter (bumped by
        :meth:`reload`). For a mutable overlay it is the pair
        ``(reloads, collection.version)``, read *live* — the instant a
        mutation lands, every previously cached result becomes
        unreachable, even before the shard engines hot-swap.
        """
        live = getattr(self._collection, "version", None)
        if live is None:
            return self._reloads
        return (self._reloads, live)

    def reload(
        self,
        collection: SetCollection,
        *,
        token_index: TokenIndex | None = None,
        sim: SimilarityFunction | None = None,
    ) -> Hashable:
        """Swap in a new collection object, rebuilding every shard engine.

        Pass a fresh ``token_index``/``sim`` when the vocabulary changed
        (the index streams only tokens it was built over). Returns the
        new version.
        """
        with self._lock.write():
            if token_index is not None:
                self._token_index = token_index
            if sim is not None:
                self._sim = sim
            self._build(collection)
            self._reloads += 1
        return self.version

    def refresh(self) -> Hashable:
        """Hot-swap the shard engines onto the collection's current
        state. Called lazily by :meth:`drain`/:meth:`search` whenever the
        live version moved. With the overlay's delta factory the engines
        are advanced by what the mutations changed — any number of them
        since the last swap cost one advance — under the write lock, so
        no reader ever finds a context to build. Returns the serving
        version."""
        with self._lock.write():
            if self._stale():
                self._hot_swap()
        return self.version

    def _hot_swap(self) -> None:
        collection = self._collection
        inserted = collection.num_slots - self._served_slots
        tags = {
            "from_version": self._built_collection_version,
            "to_version": collection.version,
            "inserted": inserted,
            "tombstoned": self._served_live + inserted - len(collection),
        }
        table = self._served_table
        watch = Stopwatch()
        with get_tracer().span("pool.hot_swap", tags=tags) as span:
            if not self._adopt_slots():
                self._build(collection)
            span.annotate(table_reused=self._served_table is table)
        self._hot_swaps += 1
        self._last_hot_swap_ms = watch.stop() * 1000.0

    def _stale(self) -> bool:
        live = getattr(self._collection, "version", None)
        return live is not None and live != self._built_collection_version

    def _ensure_fresh(self) -> None:
        if self._stale():
            self.refresh()

    def stats_snapshot(self) -> dict[str, Any]:
        """Backend-side observability (the ``stats`` wire op)."""
        version = self.version
        return {
            "backend": "engine-pool",
            "shards": self.num_shards,
            "reloads": self._reloads,
            "hot_swaps": self._hot_swaps,
            "last_hot_swap_ms": round(self._last_hot_swap_ms, 3),
            "num_sets": len(self._collection),
            "version": list(version) if isinstance(version, tuple)
            else version,
        }

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # -- mutation ----------------------------------------------------------

    def mutate(self, mutation: Mutation) -> tuple[int, Mutation]:
        """Apply one mutation to the live collection; returns the
        affected set id and the name-keyed mutation.

        New tokens are appended to the token index's vector store (or
        prefix index) so they stream immediately — only after the
        mutation resolved against live state, so a refused write leaves
        the index as it was. Shard engines hot-swap on the next search.
        """
        # Writers are exclusive: VectorStore.extend appends rows and row
        # ids non-atomically, and concurrent readers must never observe
        # a half-applied mutation (see ReadWriteLock).
        with self._lock.write():
            return apply_mutation(
                self._collection, mutation, self._token_index
            )

    # -- searching ---------------------------------------------------------

    def _effective_alpha(self, alpha: float | None) -> float:
        return resolve_alpha(self._alpha, alpha, self._token_index)

    def engine_description(self) -> dict[str, Any]:
        """What executes a query, for EXPLAIN reports."""
        return {
            "backend": "engine-pool",
            "shards": self.num_shards,
        }

    def drain(
        self, query: Iterable[str], *, alpha: float | None = None
    ) -> MaterializedTokenStream:
        """Drain one token stream usable by every shard engine (they all
        share the full collection vocabulary)."""
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        effective_alpha = self._effective_alpha(alpha)
        while True:
            self._ensure_fresh()
            with self._lock.read():
                if self._stale():
                    continue  # a mutation slipped in; swap and retry
                stream = materialize_stream(
                    self._token_index,
                    self._collection,
                    query_set,
                    effective_alpha,
                )
                stream.version = self.version
                return stream

    def search(
        self,
        query: Iterable[str],
        k: int = 10,
        *,
        alpha: float | None = None,
        stream: MaterializedTokenStream | None = None,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Exact global top-k via all shards; same contract as
        :meth:`KoiosSearchEngine.search` with ``resolve_scores=True``.

        The whole scatter runs under the pool's read lock, so every
        shard observes one collection version end to end — a concurrent
        mutation waits for in-flight searches, then the next search
        hot-swaps onto the new version.
        """
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        check_k(k)
        effective_alpha = self._effective_alpha(alpha)
        while True:
            self._ensure_fresh()
            with self._lock.read():
                if self._stale():
                    continue  # a mutation slipped in; swap and retry
                return self._search_locked(
                    query_set, k, effective_alpha, stream, time_budget
                )

    def _search_locked(
        self,
        query_set: frozenset[str],
        k: int,
        alpha: float,
        stream: MaterializedTokenStream | None,
        time_budget: float | None,
    ) -> SearchResult:
        engines = self._engines
        if not engines:
            # This pool's partition holds no live sets: the exact top-k
            # over an empty slice is empty.
            return SearchResult(entries=[], stats=SearchStats(), k=k)
        if stream is not None and (
            stream.version is not None and stream.version != self.version
        ):
            # The caller drained at an older collection version (e.g. a
            # micro-batch union drain that raced a mutation); replaying
            # it against the hot-swapped engines would be a torn view —
            # the stream's vocabulary filter belongs to the old state.
            stream = None
        # A drain the pool does itself is refinement work, timed as an
        # engine times its own drain; a replayed stream adds nothing.
        drained = None
        if stream is None:
            drained = SearchStats()
            with traced_phase(drained.timer, REFINEMENT):
                stream = materialize_stream(
                    self._token_index,
                    self._collection,
                    query_set,
                    alpha,
                )
        shared = GlobalThreshold()
        # One wall-clock deadline for the whole query: each shard gets
        # whatever budget remains, not a fresh copy of the full budget.
        deadline = (
            None if time_budget is None
            else time.perf_counter() + time_budget
        )

        # Shard searches may run on executor threads, where the tracing
        # context variable does not follow; capture the caller's span
        # here and parent each shard span explicitly.
        tracer = get_tracer()
        trace_parent = current_context() if tracer.enabled else None

        def run_shard(item: tuple[int, KoiosSearchEngine]) -> SearchResult:
            index, engine = item
            remaining = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0.0:
                    return SearchResult(
                        entries=[], stats=SearchStats(), k=k, timed_out=True
                    )
            if trace_parent is None:
                return engine.search(
                    query_set,
                    k,
                    alpha=alpha,
                    stream=stream,
                    shared_threshold=shared,
                    time_budget=remaining,
                )
            with tracer.span(
                "engine.search",
                parent=trace_parent,
                tags={"shard": index},
            ):
                return engine.search(
                    query_set,
                    k,
                    alpha=alpha,
                    stream=stream,
                    shared_threshold=shared,
                    time_budget=remaining,
                )

        if self._executor is not None:
            shard_results = list(
                self._executor.map(run_shard, enumerate(engines))
            )
        else:
            shard_results = [
                run_shard(item) for item in enumerate(engines)
            ]
        merged = merge_results(shard_results, k)
        if drained is not None:
            merged.stats.merge(drained)
        return merged


def merge_results(shard_results: list[SearchResult], k: int) -> SearchResult:
    """Merge-sort per-shard top-k lists into the global top-k.

    Shards partition the id space, so every set appears in at most one
    list; a :class:`TopKList` keeps the k best by ``(score, -set_id)``,
    which reproduces the engine's ``(-score, set_id)`` ranking exactly.
    """
    best = TopKList(k)
    entries_by_id: dict[int, ResultEntry] = {}
    stats = SearchStats()
    partition_stats: list[SearchStats] = []
    timed_out = False
    degraded = False
    coverage: tuple[int, int] | None = None
    candidates: list[ResultEntry] = []
    for result in shard_results:
        timed_out = timed_out or result.timed_out
        if result.degraded:
            degraded = True
        if result.coverage is not None:
            # Partial coverage combines by summing: partials merged
            # here partition disjoint slices of one id space.
            answered, total = result.coverage
            if coverage is None:
                coverage = (answered, total)
            else:
                coverage = (coverage[0] + answered, coverage[1] + total)
        stats.merge(result.stats)
        partition_stats.extend(result.partition_stats)
        candidates.extend(result.entries)
    # Offer in final rank order: TopKList keeps first-come on value ties,
    # so pre-sorting by (-score, set_id) makes the k-th-place tie-break
    # match the engine's ranking exactly.
    candidates.sort(key=lambda e: (-e.score, e.set_id))
    for entry in candidates:
        entries_by_id[entry.set_id] = entry
        best.offer(entry.set_id, entry.score)
    entries = [entries_by_id[set_id] for set_id, _ in best.items()]
    return SearchResult(
        entries=entries,
        stats=stats,
        k=k,
        timed_out=timed_out,
        partition_stats=partition_stats,
        degraded=degraded,
        coverage=coverage,
    )
