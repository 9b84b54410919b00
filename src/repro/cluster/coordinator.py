"""The scatter-gather coordinator: :class:`ClusterPool`.

``ClusterPool`` is a :class:`~repro.service.backend.SearchBackend` whose
shard engines live in worker *processes* instead of threads, so the
pure-Python KOIOS filter/verify hot path runs on every core instead of
time-slicing one GIL. It plugs into the existing
:class:`~repro.service.scheduler.QueryScheduler` / JSON-lines server
stack unchanged.

Exactness
---------
Results are bitwise-identical to a single-process
``EnginePool(shards=N)`` over the same ``shard_seed``: each worker owns
partition ``i`` of the *same* deterministic ``collection.partition(N)``
split a ``shards=N`` pool uses, its engines are the same
:class:`~repro.core.koios.KoiosSearchEngine` instances single-process
serving builds, and partial top-k lists merge through the same
:func:`~repro.service.pool.merge_results`. Workers do not share a live
``GlobalThreshold`` across processes — sharing only prunes *work*,
never changes the exact merged top-k, so the cluster trades a little
redundant filtering for zero cross-process chatter during a query.

Replication
-----------
Mutations are applied to the coordinator's local replica first (which
assigns the authoritative id/name and validates), then shipped to every
worker as a WAL record and acknowledged under a **version barrier**: the
mutation call does not return until every live worker reports the
coordinator's exact post-mutation version, and every query carries the
version it expects, which workers verify before searching. A query can
therefore never observe a half-applied mutation across partitions.

Failure handling
----------------
Every partition may be served by R replicas (``replicas=R``), all fed
through the same WAL-shipping/version-barrier path, so any live replica
answers its partition bitwise-identically. A scatter read goes to each
partition's *primary*; a primary that fails (timeout, torn pipe, crash)
is discarded, the read **fails over** to the next live replica — which
is promoted to primary — and the dead process is respawned by a
background restarter instead of blocking the query. Failure causes are
distinguished (:class:`~repro.errors.WorkerTimeoutError` /
:class:`~repro.errors.WorkerCrashError` /
:class:`~repro.errors.WorkerProtocolError`) because the policies
differ: timeouts and crashes fail over, protocol errors propagate (a
deterministic replica would answer the same).

When a partition has no live replica left, the coordinator retries a
synchronous restart under a bounded, seeded-backoff
:class:`~repro.cluster.replication.RetryPolicy` capped by the per-op
deadline; if the partition still cannot answer, the query returns a
**degraded** partial result (``degraded=True`` with ``coverage =
(partitions answered, partitions total)``) instead of an error — the
honest partial answer a front end can label, rather than a stall.
Re-bootstrap is exact either way: base state (shared snapshot, or
in-memory shipped) plus the full mutation history replays to
byte-identical state, so recovery is invisible in results.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from dataclasses import replace as dataclass_replace
from typing import Any, Hashable, Iterable

from repro.cluster.messages import (
    OP_METRICS,
    OP_MUTATE,
    OP_PING,
    OP_SEARCH,
    OP_STOP,
    STATUS_OK,
    WorkerSpec,
    encode_stream,
    encode_trace,
    mutation_record,
)
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.replication import PartitionGroup, RetryPolicy
from repro.cluster.worker import worker_main
from repro.core.config import FilterConfig
from repro.core.koios import SearchResult, check_k
from repro.datasets.collection import SetCollection
from repro.errors import (
    ClusterError,
    EmptyQueryError,
    InvalidParameterError,
    WorkerCrashError,
    WorkerProtocolError,
    WorkerTimeoutError,
)
from repro.index.base import TokenIndex
from repro.index.token_stream import MaterializedTokenStream
from repro.obs import current_context, get_tracer, trace_config
from repro.obs.accounting import ResourceLedger
from repro.service.backend import (
    materialize_stream,
    require_mutable,
    resolve_alpha,
)
from repro.service.pool import merge_results
from repro.sim.base import SimilarityFunction
from repro.utils.timer import Stopwatch


class _WorkerHandle:
    """One worker process + its pipe, with crash bookkeeping.

    ``worker_id`` is the *partition* this replica serves (it pins the
    deterministic id-space slice); ``replica`` distinguishes the R
    processes of one partition. ``restarting`` marks a handle the
    background restarter owns — scatter and broadcast skip it, and the
    restart catch-up brings it back into rotation.
    """

    def __init__(self, worker_id: int, ctx, spec_factory, *,
                 bootstrap_timeout: float, replica: int = 0) -> None:
        self.worker_id = worker_id
        self.replica = replica
        self._ctx = ctx
        self._spec_factory = spec_factory
        self._bootstrap_timeout = bootstrap_timeout
        self.process = None
        self.conn = None
        self.restarts = -1  # first spawn brings this to 0
        self.restarting = False

    @property
    def label(self) -> str:
        """Log/metrics identity: ``"0"`` for a partition's first
        replica (the pre-replication shape), ``"0.1"`` beyond it."""
        if self.replica == 0:
            return str(self.worker_id)
        return f"{self.worker_id}.{self.replica}"

    # -- lifecycle ---------------------------------------------------------

    def spawn(
        self,
        spec: WorkerSpec | None = None,
        *,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Start (or restart) the process; returns its hello payload.

        ``spec`` lets a caller pre-build the bootstrap spec under its
        own lock (the background restarter does); ``timeout`` caps the
        bootstrap wait below the default when a per-op deadline is
        tighter.
        """
        self.discard()
        if spec is None:
            spec = self._spec_factory(self.worker_id, self.replica)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(spec, child_conn),
            daemon=True,
            name=f"repro-cluster-worker-{self.label}",
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.restarts += 1
        wait = self._bootstrap_timeout if timeout is None else timeout
        return self.receive(wait, what="bootstrap")

    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.is_alive()
            and self.conn is not None
        )

    def discard(self) -> None:
        """Drop a dead (or dying) process and its pipe.

        Workers ignore SIGINT/SIGTERM (the coordinator owns shutdown),
        so ``terminate`` would just stall here — go straight to
        SIGKILL. By the time a handle is discarded its answers can
        never be consumed again (the pipe is closed first), so there is
        nothing graceful left to lose, and a timed-out-but-alive worker
        must die *fast*: this runs inside the failover path, where
        every joined second comes out of the op's remaining deadline.
        """
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5)
            self.process = None

    def stop(self, timeout: float = 5.0) -> None:
        """Cooperative shutdown, escalating to terminate."""
        if self.conn is not None and self.alive():
            try:
                self.conn.send((OP_STOP, None))
                self.conn.poll(timeout)
            except OSError:
                pass
        self.discard()

    # -- messaging ---------------------------------------------------------

    def send(self, op: str, payload: Any) -> bool:
        """Best-effort send; False marks the worker as failed."""
        if not self.alive():
            return False
        try:
            self.conn.send((op, payload))
            return True
        except (BrokenPipeError, OSError):
            return False

    def receive(self, timeout: float, *, what: str) -> Any:
        """Blocking receive with timeout, classifying the failure cause.

        * no reply in time → :class:`~repro.errors.WorkerTimeoutError`
          (the process may still answer later — the caller must discard
          this connection before reusing the worker, or the late reply
          desynchronizes every later request/reply pair);
        * pipe EOF / OS failure → :class:`~repro.errors.WorkerCrashError`
          (the process died or the pipe was torn — safe to fail over);
        * error status or malformed frame →
          :class:`~repro.errors.WorkerProtocolError` (the worker
          *answered*, wrongly — a deterministic replica would answer
          the same, so failover would only mask the bug).
        """
        if self.conn is None:
            raise WorkerCrashError(
                f"worker {self.label} has no live connection ({what})"
            )
        try:
            if not self.conn.poll(timeout):
                raise WorkerTimeoutError(
                    f"worker {self.label} timed out after {timeout}s "
                    f"({what})"
                )
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {self.label} connection failed ({what}): "
                f"{exc or type(exc).__name__}"
            ) from exc
        try:
            status, payload = message
        except (TypeError, ValueError) as exc:
            raise WorkerProtocolError(
                f"worker {self.label} sent a malformed frame ({what}): "
                f"{message!r}"
            ) from exc
        if status != STATUS_OK:
            raise WorkerProtocolError(
                f"worker {self.label} error ({what}): {payload}"
            )
        return payload


class ClusterPool:
    """Multi-process scatter-gather serving over worker partitions.

    Parameters
    ----------
    collection:
        The repository. Must be at version 0 (a pristine base): worker
        replicas reconstruct state as *base + mutation history*, so any
        pre-existing mutations must arrive through
        ``bootstrap_records``, not be baked into the object.
    token_index / sim:
        The coordinator's own substrate — used to drain token streams
        once per query (workers replay the shipped stream) and to
        extend the vocabulary on inserts.
    workers:
        Worker process count; the set-id space is split into exactly
        this many partitions (same layout as ``EnginePool(shards=workers)``).
    replicas:
        Processes per partition slot (default 1 — the pre-replication
        shape). All replicas of a partition bootstrap and replicate
        identically, so scatter reads fail over between them with
        bitwise-identical answers; mutations broadcast to every
        replica under the version barrier.
    shards:
        Engines *per worker* (each worker subdivides its partition).
    retry_policy:
        The :class:`~repro.cluster.replication.RetryPolicy` governing
        restart retries when a partition has no live replica left
        (bounded attempts, seeded-jitter backoff, capped by the per-op
        deadline). Defaults to ``RetryPolicy()``.
    fault_injector:
        A :class:`~repro.cluster.faults.FaultInjector` for the chaos
        harness; None in production. The coordinator drives it at the
        top of every op and while building payloads/specs.
    snapshot_path:
        When given, workers bootstrap by loading this snapshot instead
        of receiving the collection through the spawn pickle — the fast
        path for large corpora. Falls back to in-memory shipping when
        None.
    verify_snapshot:
        Stream-verify the snapshot's checksum once, coordinator-side,
        before spawning (default True). Workers always bootstrap with
        ``verify=False`` — one hash pass total instead of R×P, and
        restarts/revivals inherit the skip through the shared spec
        factory. Pass False when the caller has already verified the
        same file (``build_serving_stack`` does).
    substrate:
        Substrate descriptor for worker-side index reconstruction
        (required for in-memory shipping; optional when the snapshot
        embeds one).
    bootstrap_records:
        WAL records (dicts or :class:`~repro.store.wal.WalRecord`) to
        apply on top of the base before serving — the cluster analogue
        of ``repro serve``'s WAL replay on start.
    start_method:
        ``multiprocessing`` start method; the default ``spawn`` is the
        portable, thread-safe choice and the one the test-suite pins.
    request_timeout / bootstrap_timeout:
        Seconds to wait for a worker's answer / bootstrap hello before
        declaring it failed.
    """

    def __init__(
        self,
        collection: SetCollection,
        token_index: TokenIndex,
        sim: SimilarityFunction,
        *,
        alpha: float = 0.8,
        workers: int = 2,
        replicas: int = 1,
        shards: int = 1,
        shard_seed: int = 0,
        config: FilterConfig | None = None,
        snapshot_path: str | None = None,
        verify_snapshot: bool = True,
        substrate: dict[str, Any] | None = None,
        bootstrap_records: Iterable[Any] | None = None,
        start_method: str = "spawn",
        request_timeout: float = 120.0,
        bootstrap_timeout: float = 120.0,
        retry_policy: RetryPolicy | None = None,
        fault_injector=None,
    ) -> None:
        if workers < 1:
            raise InvalidParameterError("workers must be >= 1")
        if replicas < 1:
            raise InvalidParameterError("replicas must be >= 1")
        if shards < 1:
            raise InvalidParameterError("shards must be >= 1")
        if not (0.0 < alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")
        if len(collection) == 0:
            raise InvalidParameterError("cannot serve an empty collection")
        if getattr(collection, "version", 0) != 0:
            raise InvalidParameterError(
                "cluster bootstrap needs a pristine base collection "
                "(version 0); pass prior mutations via bootstrap_records "
                "so worker replicas can replay them"
            )
        self._collection = collection
        self._token_index = token_index
        self._sim = sim
        self._alpha = alpha
        self._num_workers = workers
        self._shards = shards
        self._shard_seed = shard_seed
        self._config = config
        self._substrate = substrate
        self._request_timeout = request_timeout
        self._replicas = replicas
        self._retry = retry_policy or RetryPolicy()
        self._fault_injector = fault_injector
        self._lock = threading.RLock()
        self._closed = False
        self._history: list[dict[str, Any]] = []
        #: The coordinator's version after each history record: a
        #: replace (delete + insert) moves it by two, not one.
        self._history_versions: list[int] = []
        self._queries = 0
        self._mutations = 0
        self._failovers = 0
        self._degraded_queries = 0
        self._worker_timeouts = 0
        self._worker_crashes = 0
        #: Coordinator-side resource meters. They live here — not in the
        #: workers — so totals stay monotone across worker crash/restart
        #: (a respawned worker's counters reset; this ledger never does).
        self.resources = ResourceLedger()

        if snapshot_path is not None:
            from repro.store.snapshot import (
                inspect_snapshot,
                verify_snapshot_checksum,
            )

            # One checksum pass here covers the whole fleet: every
            # worker spec ships verify_snapshot=False (including the
            # ones the background restarter and inline revival rebuild
            # through this same factory), so R×P bootstraps map the
            # file without re-hashing it.
            if verify_snapshot:
                manifest = verify_snapshot_checksum(snapshot_path)
            else:
                manifest = inspect_snapshot(snapshot_path)
            if manifest.substrate is None and substrate is None:
                raise InvalidParameterError(
                    "snapshot carries no substrate descriptor; pass "
                    "substrate=... so workers can rebuild the token index"
                )
            self._snapshot_path = str(snapshot_path)
            self._base_sets = None
            self._base_names = None
        else:
            # In-memory shipping: freeze the dense base once; restarts
            # replay history on top of this exact state.
            self._snapshot_path = None
            if substrate is None:
                raise InvalidParameterError(
                    "in-memory cluster bootstrap needs a substrate "
                    "descriptor (substrate=...)"
                )
            self._base_sets = tuple(
                tuple(sorted(collection[set_id]))
                for set_id in collection.ids()
            )
            self._base_names = tuple(
                collection.name_of(set_id) for set_id in collection.ids()
            )

        ctx = multiprocessing.get_context(start_method)
        self._partitions = [
            PartitionGroup(
                partition_id,
                [
                    _WorkerHandle(
                        partition_id,
                        ctx,
                        self._make_spec,
                        bootstrap_timeout=bootstrap_timeout,
                        replica=replica,
                    )
                    for replica in range(replicas)
                ],
            )
            for partition_id in range(workers)
        ]
        #: Flat partition-major handle list (replica 0 of partition 0
        #: first). With ``replicas=1`` this is exactly the
        #: pre-replication list, which the test-suite's crash
        #: injection indexes into directly.
        self._handles = [
            handle
            for group in self._partitions
            for handle in group.handles
        ]
        #: Dead replicas awaiting the background restarter; ``None``
        #: is the shutdown sentinel.
        self._restart_queue: "queue.SimpleQueue[_WorkerHandle | None]" = (
            queue.SimpleQueue()
        )
        self._restart_thread = threading.Thread(
            target=self._restart_loop,
            name="repro-cluster-restarter",
            daemon=True,
        )
        try:
            for record in bootstrap_records or ():
                self._apply_bootstrap_record(record)
            for handle in self._handles:
                hello = handle.spawn()
                self._check_version(hello["version"], "bootstrap")
            self._restart_thread.start()
        except BaseException:
            self.close()
            raise

    # -- spec / replication internals --------------------------------------

    def _make_spec(self, worker_id: int, replica: int = 0) -> WorkerSpec:
        # Taken under the lock: the background restarter builds specs
        # concurrently with mutations, and a torn history snapshot
        # would replay a half-applied record.
        with self._lock:
            faults = None
            if self._fault_injector is not None:
                faults = self._fault_injector.spawn_faults(
                    worker_id, replica
                )
            return WorkerSpec(
                worker_id=worker_id,
                num_workers=self._num_workers,
                shards=self._shards,
                shard_seed=self._shard_seed,
                alpha=self._alpha,
                config=self._config,
                snapshot_path=self._snapshot_path,
                sets=self._base_sets,
                names=self._base_names,
                substrate=self._substrate,
                base_version=0,
                history=tuple(self._history),
                # Captured at spawn/restart time, so a worker started
                # after tracing was enabled adopts it (and one
                # restarted after disable() comes up untraced).
                trace=trace_config(),
                replica=replica,
                faults=faults,
                verify_snapshot=False,
            )

    def _apply_local(
        self, op: str, ref: int | str | None, tokens: Any
    ) -> tuple[int, dict[str, Any]]:
        """Apply one mutation to the coordinator replica; returns
        ``(set_id, record)`` with the record carrying the authoritative
        (possibly auto-assigned) name. The single local-apply path for
        both live mutations and bootstrap replay, so the replayed
        history can never diverge from what the live fleet applied."""
        collection = self._mutable_collection()
        extend = getattr(self._token_index, "extend", None)
        if op == "insert":
            members = frozenset(tokens)
            if extend is not None:
                extend(members)
            set_id = collection.insert(
                members, name=ref if isinstance(ref, str) else None
            )
            return set_id, mutation_record(
                "insert", collection.name_of(set_id), tuple(members)
            )
        if op == "delete":
            assert ref is not None
            name = ref if isinstance(ref, str) else collection.name_of(ref)
            return collection.delete(ref), mutation_record(
                "delete", name, None
            )
        if op == "replace":
            assert ref is not None
            members = frozenset(tokens)
            name = ref if isinstance(ref, str) else collection.name_of(ref)
            if extend is not None:
                extend(members)
            return collection.replace(ref, members), mutation_record(
                "replace", name, tuple(members)
            )
        raise ClusterError(f"unknown mutation op: {op!r}")

    def _apply_bootstrap_record(self, record: Any) -> None:
        """Apply one pre-serving record to the coordinator replica and
        the history (workers have not spawned yet — they receive these
        through bootstrap replay, not a live broadcast)."""
        if hasattr(record, "op"):  # WalRecord
            record = {
                "op": record.op,
                "name": record.name,
                **(
                    {"tokens": list(record.tokens)}
                    if record.tokens is not None
                    else {}
                ),
            }
        _, replicated = self._apply_local(
            record.get("op"), record.get("name"), record.get("tokens")
        )
        self._history.append(replicated)
        self._history_versions.append(self._live_version())

    def _live_version(self) -> int:
        return getattr(self._collection, "version", 0)

    def _check_version(self, observed: int, what: str) -> None:
        expected = self._live_version()
        if observed != expected:
            raise ClusterError(
                f"worker replica diverged during {what}: replica at "
                f"{observed}, coordinator at {expected}"
            )

    def _restart(self, handle: _WorkerHandle, *, why: str) -> None:
        """Restart one worker and verify its re-bootstrapped version."""
        hello = handle.spawn()
        self._check_version(hello["version"], f"restart after {why}")

    def _schedule_restart(
        self, group: PartitionGroup, handle: _WorkerHandle
    ) -> bool:
        """Discard a failed replica and decide how it comes back.

        Returns True when the respawn was handed to the background
        restarter (another live replica covers the partition, so no
        query needs to wait for the bootstrap); False when this was the
        partition's last replica and the caller must recover inline.
        """
        handle.discard()
        if any(
            other is not handle and other.alive() and not other.restarting
            for other in group.handles
        ):
            handle.restarting = True
            self._restart_queue.put(handle)
            return True
        return False

    def _restart_loop(self) -> None:
        """The background restarter: respawn dead replicas without
        blocking queries (their partition is covered by a live sibling
        while the bootstrap runs)."""
        while True:
            handle = self._restart_queue.get()
            if handle is None:
                return
            try:
                self._background_restart(handle)
            except Exception:  # noqa: BLE001 — leave the replica down
                # (e.g. a persistent bootstrap failure): the next op
                # that finds its partition uncovered retries inline,
                # and liveness keeps reporting it dead meanwhile.
                handle.discard()
            finally:
                handle.restarting = False

    def _background_restart(self, handle: _WorkerHandle) -> None:
        """Respawn one replica: spec under the lock, the (slow) spawn
        outside it, then a locked catch-up of whatever mutations were
        broadcast while the bootstrap ran."""
        with self._lock:
            if self._closed:
                return
            spec = self._make_spec(handle.worker_id, handle.replica)
            spec_version = self._live_version()
        hello = handle.spawn(spec)
        if hello["version"] != spec_version:
            raise ClusterError(
                f"worker {handle.label} re-bootstrapped to version "
                f"{hello['version']}, expected {spec_version}"
            )
        with self._lock:
            if self._closed:
                handle.discard()
                return
            # The handle was out of rotation (restarting=True), so
            # broadcasts skipped it; feed the history delta under the
            # lock — no new mutation can interleave with the catch-up.
            start = len(spec.history)
            for record, version in zip(
                self._history[start:], self._history_versions[start:]
            ):
                if not handle.send(
                    OP_MUTATE, {"record": record, "version": version}
                ):
                    raise WorkerCrashError(
                        f"worker {handle.label} died during restart "
                        "catch-up"
                    )
                ack = handle.receive(
                    self._request_timeout, what="restart catch-up"
                )
                if ack["version"] != version:
                    raise ClusterError(
                        f"worker {handle.label} caught up to version "
                        f"{ack['version']}, expected {version}"
                    )

    def replica_handle(
        self, partition: int, replica: int
    ) -> _WorkerHandle | None:
        """The handle serving one replica slot (the fault injector's
        target accessor); None for out-of-range slots."""
        if not 0 <= partition < len(self._partitions):
            return None
        group = self._partitions[partition]
        if not 0 <= replica < len(group.handles):
            return None
        return group.handles[replica]

    def primary_handle(self, partition: int) -> _WorkerHandle | None:
        """The partition's *current* primary — it moves on failover, so
        benches and chaos drivers that target "the primary" must ask
        each time rather than assume replica 0; None when out of range."""
        if not 0 <= partition < len(self._partitions):
            return None
        return self._partitions[partition].primary

    def _ensure_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster pool is closed")

    # -- SearchBackend surface ---------------------------------------------

    @property
    def collection(self) -> SetCollection:
        return self._collection

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def version(self) -> Hashable:
        """Cache-key component (the live replicated version)."""
        return ("cluster", self._live_version())

    @property
    def total_restarts(self) -> int:
        return sum(max(handle.restarts, 0) for handle in self._handles)

    def _effective_alpha(self, alpha: float | None) -> float:
        return resolve_alpha(self._alpha, alpha, self._token_index)

    def drain(
        self, query: Iterable[str], *, alpha: float | None = None
    ) -> MaterializedTokenStream:
        """Drain one stream coordinator-side (workers replay it).

        One drain serves the whole fleet: the coordinator holds the
        same token index and full vocabulary the workers do, so the
        stream it materializes is exactly what each worker would have
        drained itself.
        """
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        effective_alpha = self._effective_alpha(alpha)
        with self._lock:
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
        """Exact global top-k: scatter to every worker, merge partials.

        The scatter-gather runs under the coordinator lock, so queries
        and mutations serialize at this layer — the version barrier a
        query carries is therefore always the fully-applied one. (Pipe
        connections are single-consumer, so concurrent scatters would
        need per-worker request routing; the parallelism this backend
        buys is per-query *across* workers, which is where the KOIOS
        hot-path time goes. Scheduler threads over a cluster backend
        overlap cache hits and batch assembly, not scatters.)
        """
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        check_k(k)
        effective_alpha = self._effective_alpha(alpha)
        watch = Stopwatch()
        with self._lock:
            self._ensure_open()
            if self._fault_injector is not None:
                self._fault_injector.begin_op(self)
            if stream is not None and (
                stream.version is not None
                and stream.version != self.version
            ):
                # Drained before a mutation landed: its vocabulary
                # filter belongs to the old state. Re-drain rather than
                # ship a torn view to the fleet.
                stream = None
            if stream is None:
                stream = self.drain(query_set, alpha=effective_alpha)
            else:
                if not stream.covers(query_set, effective_alpha):
                    raise InvalidParameterError(
                        "provided stream does not cover this query/alpha"
                    )
                stream = stream.restrict(query_set)
            payload = {
                "query": sorted(query_set),
                "k": k,
                "alpha": effective_alpha,
                "stream": encode_stream(stream),
                "version": self._live_version(),
                "time_budget": time_budget,
            }
            tracer = get_tracer()
            parent = current_context() if tracer.enabled else None
            if parent is not None:
                # One scatter span per query; its context rides the
                # payload so every worker's span nests under it in the
                # shared sink.
                with tracer.span(
                    "cluster.scatter",
                    parent=parent,
                    tags={"workers": self._num_workers},
                ) as scatter:
                    payload["trace"] = encode_trace(scatter.context)
                    partials, covered, total = self._scatter_search(payload)
            else:
                partials, covered, total = self._scatter_search(payload)
            self._queries += 1
            merged = merge_results(partials, k)
            if covered < total:
                # Every replica of >= 1 partition is down and could not
                # be revived within the deadline: answer with what the
                # live partitions returned, honestly labelled, instead
                # of erroring or stalling.
                self._degraded_queries += 1
                merged = dataclass_replace(
                    merged, degraded=True, coverage=(covered, total)
                )
            self.resources.charge_search(watch.stop(), merged.stats)
        return merged

    def _send_search(
        self, handle: _WorkerHandle, payload: dict[str, Any]
    ) -> bool:
        """Send one search to one replica, merging any armed payload
        faults (injected slowness) for that replica slot."""
        message = payload
        if self._fault_injector is not None:
            extra = self._fault_injector.payload_faults(
                handle.worker_id, handle.replica
            )
            if extra:
                message = {**payload, **extra}
        return handle.send(OP_SEARCH, message)

    def _scatter_search(
        self, payload: dict[str, Any]
    ) -> tuple[list[SearchResult], int, int]:
        """Fan one search out across partitions, failing over to live
        replicas; returns ``(partials, partitions answered, total)``.

        All sends happen before any receive — that is the fan-out that
        buys multi-core parallelism. Each partition's read goes to its
        primary; a primary that fails at either step fails over through
        the remaining live replicas (the answering replica is promoted,
        the dead one handed to the background restarter). Only when no
        replica is left does the coordinator block on a synchronous
        restart, bounded by the retry policy and the per-op deadline;
        a partition that still cannot answer is simply absent from the
        partials (the caller degrades the merged result).

        The per-op deadline is *two* receive-timeout windows: a hung
        primary legitimately burns one full ``request_timeout`` before
        it is declared dead, and the failover read (or revival) then
        needs a window of its own — a single-window deadline would turn
        every primary timeout into a degraded answer.
        """
        deadline = time.monotonic() + 2.0 * self._request_timeout
        targets: dict[int, _WorkerHandle | None] = {}
        for group in self._partitions:
            target = None
            for handle in group.live_replicas():
                if self._send_search(handle, payload):
                    target = handle
                    break
                # The send itself failed: the pipe is torn, which is a
                # crash as far as classification goes.
                self._worker_crashes += 1
                if not self._schedule_restart(group, handle):
                    break  # last replica; the gather stage revives it
            targets[group.partition_id] = target
        results: dict[int, SearchResult] = {}
        for group in self._partitions:
            partial = self._gather_partition(
                group, targets[group.partition_id], payload, deadline
            )
            if partial is not None:
                results[group.partition_id] = partial
        partials = [results[pid] for pid in sorted(results)]
        return partials, len(results), len(self._partitions)

    def _gather_partition(
        self,
        group: PartitionGroup,
        handle: _WorkerHandle | None,
        payload: dict[str, Any],
        deadline: float,
    ) -> SearchResult | None:
        """Collect one partition's partial, failing over across its
        replicas; None means the partition could not answer (degraded).

        Timeouts and crashes fail over (any live replica answers
        bitwise-identically); :class:`~repro.errors.WorkerProtocolError`
        propagates — the worker *answered*, and a deterministic replica
        would answer the same, so failover would only mask the bug.
        """
        current = handle
        while True:
            if current is not None:
                try:
                    remaining = max(deadline - time.monotonic(), 0.0)
                    result = current.receive(
                        min(self._request_timeout, remaining),
                        what="search",
                    )
                except WorkerTimeoutError:
                    self._worker_timeouts += 1
                    self._schedule_restart(group, current)
                except WorkerCrashError:
                    self._worker_crashes += 1
                    self._schedule_restart(group, current)
                else:
                    if group.promote(current):
                        self._failovers += 1
                    return result
            # Fail over: first live sibling that accepts the send.
            current = None
            for candidate in group.live_replicas():
                if self._send_search(candidate, payload):
                    current = candidate
                    break
                self._worker_crashes += 1
                self._schedule_restart(group, candidate)
            if current is not None:
                continue
            return self._revive_and_ask(group, payload, deadline)

    def _revive_and_ask(
        self,
        group: PartitionGroup,
        payload: dict[str, Any],
        deadline: float,
    ) -> SearchResult | None:
        """Last resort for a partition with no live replica: bounded
        synchronous restart attempts under the retry policy, each
        capped by what remains of the per-op deadline."""
        candidates = [h for h in group.handles if not h.restarting]
        if not candidates:
            # Every replica is mid-restart on the background thread;
            # this partition sits the query out rather than stalling.
            return None
        target = candidates[0]
        budget = max(deadline - time.monotonic(), 0.0)
        pauses = [0.0, *self._retry.capped_delays(budget)]
        for pause in pauses:
            if pause > 0.0:
                time.sleep(pause)
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                break
            try:
                hello = target.spawn(timeout=remaining)
                self._check_version(
                    hello["version"], "restart after search failure"
                )
                if not self._send_search(target, payload):
                    raise WorkerCrashError(
                        f"worker {target.label} failed immediately "
                        "after restart"
                    )
                remaining = max(deadline - time.monotonic(), 0.0)
                result = target.receive(
                    min(self._request_timeout, remaining),
                    what="search retry",
                )
            except WorkerTimeoutError:
                self._worker_timeouts += 1
                target.discard()
            except WorkerCrashError:
                self._worker_crashes += 1
                target.discard()
            except ClusterError:
                # Bootstrap refusal / version divergence / protocol
                # error during revival: count the attempt, retry under
                # the policy, and degrade when the budget runs out.
                target.discard()
            else:
                if group.promote(target):
                    self._failovers += 1
                return result
        return None

    # -- mutation ----------------------------------------------------------

    def _mutable_collection(self):
        return require_mutable(self._collection)

    def insert(
        self, tokens: Iterable[str], *, name: str | None = None
    ) -> int:
        """Insert locally, then replicate under the version barrier."""
        with self._lock:
            self._ensure_open()
            if self._fault_injector is not None:
                self._fault_injector.begin_op(self)
            set_id, record = self._apply_local("insert", name, tokens)
            self._replicate(record)
        return set_id

    def delete(self, ref: int | str) -> int:
        """Delete locally, then replicate under the version barrier."""
        with self._lock:
            self._ensure_open()
            if self._fault_injector is not None:
                self._fault_injector.begin_op(self)
            set_id, record = self._apply_local("delete", ref, None)
            self._replicate(record)
        return set_id

    def replace(self, ref: int | str, tokens: Iterable[str]) -> int:
        """Replace locally, then replicate under the version barrier."""
        with self._lock:
            self._ensure_open()
            if self._fault_injector is not None:
                self._fault_injector.begin_op(self)
            set_id, record = self._apply_local("replace", ref, tokens)
            self._replicate(record)
        return set_id

    def _replicate(self, record: dict[str, Any]) -> None:
        """Ship one applied mutation to every worker and barrier on it.

        The record joins the history *before* the broadcast: a worker
        that dies mid-broadcast re-bootstraps from history and thereby
        applies the record exactly once (its restart hello is version-
        checked in place of an ACK).
        """
        self._history.append(record)
        self._mutations += 1
        expected = self._live_version()
        self._history_versions.append(expected)
        payload = {"record": record, "version": expected}
        pending: list[tuple[PartitionGroup, _WorkerHandle]] = []
        failed: list[tuple[PartitionGroup, _WorkerHandle]] = []
        for group in self._partitions:
            for handle in group.handles:
                if handle.restarting:
                    # Out of rotation: the background restarter's
                    # catch-up replays this record from the history.
                    continue
                if handle.send(OP_MUTATE, payload):
                    pending.append((group, handle))
                else:
                    self._worker_crashes += 1
                    failed.append((group, handle))
        for group, handle in pending:
            try:
                ack = handle.receive(self._request_timeout, what="mutate")
                # A divergent ack inside the try: the worker joins the
                # restart list like any other failure, AFTER the
                # remaining workers' acks have been drained — one bad
                # replica must never poison the other pipes.
                self._check_version(ack["version"], "mutate ack")
            except WorkerTimeoutError:
                self._worker_timeouts += 1
                failed.append((group, handle))
            except WorkerCrashError:
                self._worker_crashes += 1
                failed.append((group, handle))
            except ClusterError:
                # Protocol error or divergence: for mutations, restart
                # IS the repair (re-bootstrap re-derives the state).
                failed.append((group, handle))
        for group, handle in failed:
            # Restart replays the full history (including this record);
            # the version-checked hello doubles as the ACK. A restart
            # that itself fails must NOT fail the mutation: it is
            # already applied on the coordinator and the surviving
            # replicas (and about to be WAL-logged by the scheduler) —
            # raising here would acknowledge an error for a mutation
            # the cluster visibly serves, and strand it outside the
            # durable log. When a live sibling replica covers the
            # partition the respawn happens in the background; only a
            # partition's last replica is revived inline. Leave a
            # worker down if even that fails; the next operation that
            # touches it retries the spawn.
            if self._schedule_restart(group, handle):
                continue
            try:
                self._restart(handle, why="mutation broadcast failure")
            except ClusterError:
                handle.discard()

    # -- health / metrics ---------------------------------------------------

    def health_check(self) -> list[dict[str, Any]]:
        """Ping every worker, restarting any that died; returns one
        status dict per worker."""
        statuses = []
        with self._lock:
            self._ensure_open()
            for handle in self._handles:
                if handle.restarting:
                    # The background restarter owns this replica; do
                    # not race it with a second spawn.
                    statuses.append(
                        {
                            "worker_id": handle.worker_id,
                            "replica": handle.replica,
                            "worker": handle.label,
                            "alive": False,
                            "restarting": True,
                            "restarted": False,
                            "restarts": max(handle.restarts, 0),
                        }
                    )
                    continue
                restarted = False
                try:
                    if not handle.send(OP_PING, None):
                        raise ClusterError(
                            f"worker {handle.label} is not running"
                        )
                    pong = handle.receive(
                        self._request_timeout, what="ping"
                    )
                    self._check_version(pong["version"], "ping")
                except ClusterError:
                    self._restart(handle, why="failed health check")
                    restarted = True
                statuses.append(
                    {
                        "worker_id": handle.worker_id,
                        "replica": handle.replica,
                        "worker": handle.label,
                        "alive": handle.alive(),
                        "restarted": restarted,
                        "restarts": max(handle.restarts, 0),
                    }
                )
        return statuses

    def liveness(self) -> list[dict[str, Any]]:
        """Per-worker liveness WITHOUT pinging or restarting anyone.

        The readiness probe's view of the fleet: ``health_check`` is a
        repair action (it restarts dead workers as a side effect), so a
        ``/readyz`` that called it could never observe a down worker.
        This only inspects process state — a killed worker reads
        ``alive: False`` here until the next health check or search
        revives it.
        """
        with self._lock:
            self._ensure_open()
            return [
                {
                    "worker_id": handle.worker_id,
                    "replica": handle.replica,
                    "worker": handle.label,
                    "alive": handle.alive() and not handle.restarting,
                    "restarting": handle.restarting,
                    "restarts": max(handle.restarts, 0),
                }
                for handle in self._handles
            ]

    def engine_description(self) -> dict[str, Any]:
        """What executes a query, for EXPLAIN reports."""
        return {
            "backend": "cluster",
            "workers": self._num_workers,
            "shards_per_worker": self._shards,
        }

    def cluster_metrics(self) -> ClusterMetrics:
        """Gather per-worker metrics snapshots into a rollup."""
        with self._lock:
            self._ensure_open()
            snapshots: dict[str, dict[str, Any]] = {}
            for handle in self._handles:
                if handle.restarting:
                    continue  # mid-restart: nothing to report yet
                if not handle.send(OP_METRICS, None):
                    continue  # a dead worker has no metrics to report
                try:
                    snapshots[handle.label] = handle.receive(
                        self._request_timeout, what="metrics"
                    )
                except ClusterError:
                    # The request may still be in flight on a stalled
                    # worker; its late reply would desynchronize the
                    # request/reply pipe for every later op. Drop the
                    # connection — the next interaction respawns.
                    handle.discard()
            return ClusterMetrics(
                snapshots,
                queries=self._queries,
                mutations=self._mutations,
                restarts=self.total_restarts,
                failovers=self._failovers,
                degraded=self._degraded_queries,
                worker_timeouts=self._worker_timeouts,
                worker_crashes=self._worker_crashes,
            )

    def stats_snapshot(self) -> dict[str, Any]:
        """Backend-side payload of the ``stats`` wire op."""
        snapshot = self.cluster_metrics().snapshot()
        version = self.version
        snapshot["version"] = (
            list(version) if isinstance(version, tuple) else version
        )
        snapshot["num_sets"] = len(self._collection)
        snapshot["resources"] = self.resources.snapshot()
        return snapshot

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the restarter, then every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Outside the lock: the restarter may be blocked *on* the lock
        # (catch-up), and must observe _closed and drain its queue. A
        # restart thread that never started (bootstrap failure) is not
        # joinable and gets skipped.
        self._restart_queue.put(None)
        if self._restart_thread.is_alive():
            self._restart_thread.join(timeout=10.0)
        with self._lock:
            for handle in self._handles:
                handle.stop()

    def shutdown(self) -> None:
        """Alias matching :meth:`EnginePool.shutdown`."""
        self.close()

    def __enter__(self) -> "ClusterPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
