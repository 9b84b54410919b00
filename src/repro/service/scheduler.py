"""Admission, dedup, and micro-batching of search requests.

The :class:`QueryScheduler` is the front door of the service. Each
accepted request flows through three short-circuits before any engine
work happens:

1. **Cache** — a finished result for the same
   ``(query, k, alpha, collection_version)`` is returned immediately;
2. **In-flight dedup** — an identical query already being computed
   shares its future instead of computing twice (the thundering-herd
   case: one expensive query arriving many times at once costs one
   search);
3. **Micro-batching** — remaining requests are grouped by compatible
   ``(k, alpha)``; a batch is dispatched when it reaches ``max_batch``
   or on :meth:`QueryScheduler.flush`. The batch worker drains ONE
   token stream for the union of the batch's query sets and replays a
   restricted view per request, so the index is probed once per batch
   instead of once per request.

Dispatch runs on a small worker pool; callers get a :class:`Ticket`
whose ``result()`` blocks until the response is ready.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.stats import SearchStats
from repro.errors import InvalidParameterError, ReproError
from repro.obs import Stopwatch, build_explain, get_tracer
from repro.service.backend import SearchBackend
from repro.service.cache import CacheKey, ResultCache, make_key
from repro.service.metrics import ServiceMetrics
from repro.service.request import (
    Hit,
    SearchRequest,
    SearchResponse,
    hits_from_result,
)
from repro.store.mutation import DELETE, INSERT, REPLACE, Mutation

#: Scheduler phase names (recorded in ``ServiceMetrics.timer``).
DRAIN = "drain"
SEARCH = "search"


@dataclass(frozen=True)
class _Payload:
    """What one computed search stores in futures and the cache.

    ``stats``/``partition_stats`` are carried so EXPLAIN can be built
    for any ticket sharing the payload — a cache hit or a dedup rider
    explains the computation that produced its answer (references only;
    a payload costs no more when nobody asks).
    """

    hits: tuple[Hit, ...]
    timed_out: bool
    seconds: float
    stats: SearchStats | None = None
    partition_stats: tuple[SearchStats, ...] = ()
    degraded: bool = False
    coverage: tuple[int, int] | None = None


class Ticket:
    """A claim on one accepted request's eventual response."""

    def __init__(
        self,
        request: SearchRequest,
        future: "Future[_Payload]",
        *,
        cached: bool = False,
        deduplicated: bool = False,
        alpha: float | None = None,
        engine: dict | None = None,
    ) -> None:
        self._request = request
        self._future = future
        self._cached = cached
        self._deduplicated = deduplicated
        self._alpha = alpha
        self._engine = engine

    @property
    def request(self) -> SearchRequest:
        return self._request

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> SearchResponse:
        """Block for the response. Engine-level :class:`ReproError`\\ s
        become error responses; unexpected exceptions propagate.

        A funnel-invariant violation surfaced by the EXPLAIN build
        (:class:`~repro.errors.StatsInvariantError`, raised only under
        pytest) is deliberately NOT converted into an error response:
        it means the engine's own accounting is wrong, and a test run
        must fail loudly rather than serve the report.
        """
        try:
            payload = self._future.result(timeout)
        except ReproError as exc:
            return SearchResponse.failure(self._request.request_id, str(exc))
        explain = None
        if self._request.explain:
            trace = self._request.trace
            explain = build_explain(
                stats=payload.stats,
                partition_stats=payload.partition_stats,
                request_id=self._request.request_id,
                trace_id=getattr(trace, "trace_id", None),
                k=self._request.k,
                alpha=self._alpha,
                seconds=0.0 if self._cached else payload.seconds,
                cached=self._cached,
                deduplicated=self._deduplicated,
                timed_out=payload.timed_out,
                engine=self._engine,
            )
        return SearchResponse(
            request_id=self._request.request_id,
            hits=payload.hits,
            k=self._request.k,
            cached=self._cached,
            deduplicated=self._deduplicated,
            timed_out=payload.timed_out,
            seconds=0.0 if self._cached else payload.seconds,
            explain=explain,
            degraded=payload.degraded,
            coverage=payload.coverage,
        )


class QueryScheduler:
    """Serve :class:`SearchRequest`\\ s through a
    :class:`~repro.service.backend.SearchBackend`.

    Parameters
    ----------
    pool:
        The serving backend executing searches and mutations — the
        in-process :class:`~repro.service.pool.EnginePool`, the
        multi-process :class:`~repro.cluster.ClusterPool`, or anything
        else satisfying :class:`~repro.service.backend.SearchBackend`.
        The scheduler is transport-agnostic: admission, caching, dedup,
        and batching behave identically over any backend.
    cache:
        Result cache; None disables caching.
    metrics:
        Metrics sink (a fresh one is created when omitted).
    max_batch:
        Dispatch a ``(k, alpha)`` bucket as soon as it holds this many
        distinct queries; 1 disables batching.
    workers:
        Worker threads executing batches; >1 overlaps independent
        batches (useful whenever engine work releases the GIL or when
        callers block on tickets).
    wal:
        A :class:`~repro.store.wal.WriteAheadLog` that durably records
        every mutation accepted through :meth:`mutate`. None =
        in-memory mutation only (still versioned, just not
        crash-durable).
    cache_namespace:
        A hashable tag mixed into every cache key's version component
        (``(namespace, pool.version)`` instead of the bare version).
        Multi-tenant deployments point several schedulers at ONE shared
        :class:`ResultCache` and give each its tenant id here: capacity
        is shared fleet-wide, yet one tenant's entries can never be
        returned for — nor invalidated by — another tenant, because no
        key collides across namespaces. None (the default) leaves the
        key shape exactly as before.
    """

    def __init__(
        self,
        pool: SearchBackend,
        *,
        cache: ResultCache | None = None,
        metrics: ServiceMetrics | None = None,
        max_batch: int = 8,
        workers: int = 1,
        wal=None,
        cache_namespace=None,
    ) -> None:
        if max_batch < 1:
            raise InvalidParameterError("max_batch must be >= 1")
        if workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        self._pool = pool
        self._cache = cache
        self._wal = wal
        self._cache_namespace = cache_namespace
        self.metrics = metrics or ServiceMetrics()
        self._max_batch = max_batch
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self._lock = threading.Lock()
        self._inflight: dict[CacheKey, Future] = {}
        self._pending: dict[
            tuple[int, float], list[tuple[SearchRequest, CacheKey, Future]]
        ] = {}

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Dispatch whatever is pending, wait for workers to drain, and
        flush/close the write-ahead log (the scheduler is its only
        writer, so every acknowledged mutation is durable once this
        returns — the graceful-shutdown contract of ``repro serve``)."""
        self.flush()
        self._executor.shutdown(wait=True)
        if self._wal is not None:
            close = getattr(self._wal, "close", None)
            if close is not None:
                close()

    # -- admission ---------------------------------------------------------

    def submit(self, request: SearchRequest) -> Ticket:
        """Accept one request; returns immediately with a ticket."""
        alpha = (
            self._pool.alpha if request.alpha is None else request.alpha
        )
        key = make_key(
            request.query, request.k, alpha, self._cache_version()
        )
        self.metrics.record_accepted()
        ready: list[tuple[SearchRequest, CacheKey, Future]] | None = None
        bucket = (request.k, alpha)
        engine = self.engine_info() if request.explain else None
        with self._lock:
            if self._cache is not None:
                payload = self._cache.get(key)
                if payload is not None:
                    self.metrics.record_cache_hit()
                    future: Future = Future()
                    future.set_result(payload)
                    return Ticket(
                        request, future, cached=True,
                        alpha=alpha, engine=engine,
                    )
            future = self._inflight.get(key)
            if future is not None:
                self.metrics.record_deduplicated()
                return Ticket(
                    request, future, deduplicated=True,
                    alpha=alpha, engine=engine,
                )
            future = Future()
            self._inflight[key] = future
            queue = self._pending.setdefault(bucket, [])
            queue.append((request, key, future))
            if len(queue) >= self._max_batch:
                ready = self._pending.pop(bucket)
        if ready is not None:
            self._dispatch(bucket, ready)
        return Ticket(request, future, alpha=alpha, engine=engine)

    def flush(self) -> None:
        """Dispatch every pending bucket regardless of occupancy.

        Interrupt-safe: an exception raised mid-dispatch (e.g. a
        signal-raised GracefulShutdown during the serve loop's drain)
        re-queues the batches not yet handed to the executor, so their
        futures can still be completed by a retried flush — an
        abandoned batch would leave callers blocked on futures nobody
        will ever finish.
        """
        with self._lock:
            batches = list(self._pending.items())
            self._pending.clear()
        try:
            while batches:
                bucket, items = batches[-1]
                self._dispatch(bucket, items)
                batches.pop()
        except BaseException:
            with self._lock:
                for bucket, items in batches:
                    self._pending.setdefault(bucket, []).extend(items)
            raise

    # -- conveniences ------------------------------------------------------

    def answer(self, request: SearchRequest) -> SearchResponse:
        """Submit one request and block for its response."""
        ticket = self.submit(request)
        self.flush()
        return ticket.result()

    def answer_many(
        self, requests: Iterable[SearchRequest]
    ) -> list[SearchResponse]:
        """Submit a whole workload, then flush once — maximal batching.
        Responses come back in request order."""
        tickets = [self.submit(request) for request in requests]
        self.flush()
        return [ticket.result() for ticket in tickets]

    def engine_info(self) -> dict:
        """Identify the backend for EXPLAIN reports (best-effort: any
        backend without :meth:`engine_description` reports its class)."""
        describe = getattr(self._pool, "engine_description", None)
        if describe is not None:
            return describe()
        return {"backend": type(self._pool).__name__}

    def _cache_version(self):
        """The version component of this scheduler's cache keys — the
        backend version, tagged with the tenant namespace when set."""
        version = self._pool.version
        if self._cache_namespace is None:
            return version
        return (self._cache_namespace, version)

    def invalidate_cache(self) -> int:
        """Explicitly drop cached results (e.g. after ``pool.reload``).

        A namespaced scheduler drops only its own namespace's entries —
        on a shared multi-tenant cache, one tenant's ``invalidate`` wire
        op must never evict a neighbour's warm results.
        """
        if self._cache is None:
            return 0
        if self._cache_namespace is None:
            return self._cache.invalidate()
        namespace = self._cache_namespace
        return self._cache.invalidate(
            where=lambda key: (
                isinstance(key[3], tuple)
                and len(key[3]) == 2
                and key[3][0] == namespace
            )
        )

    # -- mutation ----------------------------------------------------------
    #
    # Mutations apply to the pool's live collection first and are logged
    # once they succeed; the caller's acknowledgement (and any WAL
    # replay after a crash) therefore only ever covers mutations that
    # validated. Version-keyed caching makes stale results unreachable
    # immediately — no eager invalidation required. Mutations are not
    # fenced against in-flight batches; the JSON-lines server drains its
    # response window before applying one, which is the ordering callers
    # should preserve.

    @property
    def pool(self) -> SearchBackend:
        return self._pool

    @property
    def cache(self) -> ResultCache | None:
        """The (possibly shared) result cache; None when disabled."""
        return self._cache

    def mutate(self, mutation: Mutation) -> int:
        """Apply one mutation to the live collection, then log its
        name-keyed form; returns the affected set id. A refused
        mutation raises before anything changes or is logged."""
        set_id, named = self._pool.mutate(mutation)
        if self._wal is not None:
            record = self._wal.append(named.op, named.ref, named.tokens)
            # Charge the record's wire size (line + newline) to the
            # tenant ledger.
            self.metrics.record_wal_bytes(len(record.to_line()) + 1)
        return set_id

    # Per-op shorthands over :meth:`mutate`.

    def insert_set(
        self, tokens: Iterable[str], *, name: str | None = None
    ) -> int:
        return self.mutate(Mutation(INSERT, name, tokens))

    def delete_set(self, ref: int | str) -> int:
        return self.mutate(Mutation(DELETE, ref))

    def replace_set(self, ref: int | str, tokens: Iterable[str]) -> int:
        return self.mutate(Mutation(REPLACE, ref, tokens))

    # -- execution ---------------------------------------------------------

    def _dispatch(
        self,
        bucket: tuple[int, float],
        items: Sequence[tuple[SearchRequest, CacheKey, Future]],
    ) -> None:
        self._executor.submit(self._run_batch, bucket, items)

    def _run_batch(
        self,
        bucket: tuple[int, float],
        items: Sequence[tuple[SearchRequest, CacheKey, Future]],
    ) -> None:
        k, alpha = bucket
        tracer = get_tracer()
        self.metrics.record_batch(len(items))
        stream = None
        if len(items) > 1:
            union = frozenset().union(
                *(request.query for request, _, _ in items)
            )
            # The union drain serves the whole batch; its span hangs off
            # the first traced request (one drain cannot parent into
            # every trace) and tags the batch width.
            drain_parent = next(
                (r.trace for r, _, _ in items if r.trace is not None), None
            )
            try:
                with tracer.span(
                    "scheduler.drain",
                    parent=drain_parent,
                    tags={"batch": len(items)},
                ):
                    with self.metrics.phase(DRAIN):
                        stream = self._pool.drain(union, alpha=alpha)
            except Exception as exc:
                for _, key, future in items:
                    self._finish_error(key, future, exc)
                return
        for request, key, future in items:
            if future.done():
                # Double-dispatch guard: flush()'s interrupt re-queue
                # can in a narrow race dispatch a batch twice; the
                # first completion wins, the rerun skips.
                continue
            watch = Stopwatch()
            try:
                # The span stays open across the backend call on this
                # worker thread, so engine-side spans (shards, phases)
                # nest under it via the context variable.
                with tracer.span(
                    "scheduler.search",
                    parent=request.trace,
                    tags={"request_id": request.request_id},
                ):
                    request_stream = (
                        None
                        if stream is None
                        else stream.restrict(request.query)
                    )
                    with self.metrics.phase(SEARCH):
                        result = self._pool.search(
                            request.query,
                            k,
                            alpha=alpha,
                            stream=request_stream,
                        )
            except Exception as exc:
                self._finish_error(key, future, exc)
                continue
            seconds = watch.stop()
            payload = _Payload(
                hits=hits_from_result(result),
                timed_out=result.timed_out,
                seconds=seconds,
                stats=result.stats,
                partition_stats=tuple(result.partition_stats),
                degraded=getattr(result, "degraded", False),
                coverage=getattr(result, "coverage", None),
            )
            # Degraded answers (like timed-out ones) are honest but
            # partial — never cache them, or a transient outage would
            # keep answering after the fleet recovered.
            if (
                self._cache is not None
                and not result.timed_out
                and not payload.degraded
            ):
                self._cache.put(key, payload)
            self.metrics.record_completed(
                seconds, result.stats, degraded=payload.degraded
            )
            with self._lock:
                self._inflight.pop(key, None)
            try:
                future.set_result(payload)
            except InvalidStateError:
                pass  # a double-dispatched twin finished first

    def _finish_error(
        self, key: CacheKey, future: Future, exc: Exception
    ) -> None:
        self.metrics.record_error()
        with self._lock:
            self._inflight.pop(key, None)
        try:
            future.set_exception(exc)
        except InvalidStateError:
            pass  # a double-dispatched twin finished first
