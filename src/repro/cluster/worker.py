"""The cluster worker process.

``worker_main`` is the spawn entry point: it bootstraps a full replica
of the collection (from the shared snapshot when one exists, otherwise
from the in-memory state shipped in the spec), replays the coordinator's
WAL-record history, builds an :class:`~repro.service.pool.EnginePool`
restricted to this worker's partition of the set-id space, and then
answers scatter-gather requests over its pipe until told to stop.

Every worker holds the *whole* collection but serves only its slice —
that is what keeps the design exact and simple:

* id assignment is replicated, not coordinated: replaying the same
  mutation records over the same base state yields the same ids and the
  same monotone version in every process (the version barrier checks
  this on every request);
* partition ownership is a deterministic function of the set id
  (``collection.slot_assignment``), so a newly inserted set is owned
  by exactly one worker — the same worker a single-process
  ``shards=N`` pool would have assigned it to — and a delete moves no
  other set between workers;
* the worker's engines are the same engines single-process serving
  uses; no cluster-only search code path exists that could drift from
  the exactness contract.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Any

from repro.cluster.messages import (
    OP_METRICS,
    OP_MUTATE,
    OP_PING,
    OP_SEARCH,
    OP_STOP,
    STATUS_ERROR,
    STATUS_OK,
    WorkerSpec,
    check_version,
    decode_stream,
    decode_trace,
    ping_reply,
)
from repro.datasets.collection import SetCollection
from repro.errors import ClusterError, ReproError
from repro.obs import Stopwatch, configure_from, get_tracer
from repro.service.metrics import ServiceMetrics
from repro.service.pool import EnginePool
from repro.store.mutable import MutableSetCollection


def substrate_from_descriptor(
    descriptor: dict[str, Any] | None, vocabulary
):
    """Rebuild ``(token_index, sim)`` from a substrate descriptor.

    A thin cluster-flavored wrapper over the store layer's canonical
    :func:`~repro.store.snapshot.build_substrate` — the artifacts are
    derived from the vocabulary instead of deserialized, which is the
    in-memory-shipping bootstrap path. One constructor for the CLI,
    the workers, and snapshot restore means replicas built in
    different processes can never stream differently.
    """
    if descriptor is None:
        raise ClusterError(
            "worker cannot build a token index without a substrate "
            "descriptor (pass substrate=... or bootstrap from a "
            "snapshot that embeds one)"
        )
    from repro.errors import SnapshotError
    from repro.store.snapshot import build_substrate

    try:
        return build_substrate(descriptor, vocabulary)
    except SnapshotError as exc:
        raise ClusterError(str(exc)) from exc


def apply_mutation(pool: EnginePool, record: dict[str, Any]) -> int:
    """Apply one WAL-shaped record through the pool's mutation path.

    Used for both live replication and bootstrap replay, so a restarted
    worker reconstructs state through *exactly* the code path the live
    fleet used — identical token-index extends, id assignment, and
    version bumps.
    """
    op = record.get("op")
    if op == "insert":
        return pool.insert(record["tokens"], name=record["name"])
    if op == "delete":
        return pool.delete(record["name"])
    if op == "replace":
        return pool.replace(record["name"], record["tokens"])
    raise ClusterError(f"unknown mutation op: {op!r}")


@dataclass
class WorkerState:
    """One bootstrapped worker replica."""

    spec: WorkerSpec
    pool: EnginePool
    metrics: ServiceMetrics

    @property
    def effective_version(self) -> int:
        """The version this replica would report if it were the
        coordinator: base + local mutations (replayed or live)."""
        local = getattr(self.pool.collection, "version", 0)
        return self.spec.base_version + local


def bootstrap(spec: WorkerSpec) -> WorkerState:
    """Build a serving replica from a spec (spawn- and restart-path)."""
    if spec.faults is not None and spec.faults.get("bootstrap_fail"):
        # Armed by the chaos harness: die exactly the way a corrupt
        # snapshot or missing substrate would, through the same
        # report-then-exit path in worker_main.
        raise ClusterError(
            f"injected bootstrap failure (worker {spec.worker_id}"
            f".{spec.replica})"
        )
    if spec.snapshot_path is not None:
        from repro.store.snapshot import load_snapshot

        # The coordinator already stream-verified the file once; specs
        # ship verify_snapshot=False so R×P replicas (and every restart)
        # just map the shared page-cache copy instead of re-hashing.
        loaded = load_snapshot(
            spec.snapshot_path, verify=spec.verify_snapshot
        )
        overlay = loaded.mutable()
        token_index, sim = loaded.token_index, loaded.sim
        if token_index is None:
            token_index, sim = substrate_from_descriptor(
                spec.substrate, overlay.vocabulary
            )
    else:
        if spec.sets is None or spec.names is None:
            raise ClusterError(
                "worker spec carries neither a snapshot path nor "
                "in-memory collection state"
            )
        base = SetCollection(
            [frozenset(members) for members in spec.sets],
            names=list(spec.names),
        )
        overlay = MutableSetCollection(base)
        token_index, sim = substrate_from_descriptor(
            spec.substrate, overlay.vocabulary
        )
    pool = EnginePool(
        overlay,
        token_index,
        sim,
        alpha=spec.alpha,
        shards=spec.shards,
        shard_seed=spec.shard_seed,
        config=spec.config,
        partition=(spec.worker_id, spec.num_workers),
    )
    for record in spec.history:
        apply_mutation(pool, record)
    return WorkerState(spec=spec, pool=pool, metrics=ServiceMetrics())


def _handle_search(state: WorkerState, payload: dict[str, Any]) -> Any:
    fault_sleep = payload.get("fault_sleep")
    if fault_sleep:
        # Injected slowness (chaos harness): stall *before* touching
        # state, so a coordinator that times out and fails over never
        # races a half-finished search.
        time.sleep(float(fault_sleep))
    check_version(
        state.effective_version,
        payload["version"],
        where=f"worker {state.spec.worker_id} search",
    )
    state.metrics.record_accepted()
    stream = decode_stream(payload["stream"])
    # The coordinator's span context crosses the wire as primitives;
    # parenting the worker span under it stitches this process's spans
    # into the same request tree (and the same sink file).
    remote = decode_trace(payload.get("trace"))
    tracer = get_tracer()
    watch = Stopwatch()
    if tracer.enabled and remote is not None:
        with tracer.span(
            "worker.search",
            parent=remote,
            tags={"worker": state.spec.worker_id},
        ):
            result = state.pool.search(
                frozenset(payload["query"]),
                payload["k"],
                alpha=payload["alpha"],
                stream=stream,
                time_budget=payload.get("time_budget"),
            )
    else:
        result = state.pool.search(
            frozenset(payload["query"]),
            payload["k"],
            alpha=payload["alpha"],
            stream=stream,
            time_budget=payload.get("time_budget"),
        )
    state.metrics.record_completed(watch.stop(), result.stats)
    return result


def _handle_mutate(
    state: WorkerState, payload: dict[str, Any]
) -> dict[str, Any]:
    set_id = apply_mutation(state.pool, payload["record"])
    check_version(
        state.effective_version,
        payload["version"],
        where=f"worker {state.spec.worker_id} mutate",
    )
    return {"set_id": set_id, "version": state.effective_version}


def _dispatch(state: WorkerState, op: str, payload: Any) -> Any:
    if op == OP_SEARCH:
        return _handle_search(state, payload)
    if op == OP_MUTATE:
        return _handle_mutate(state, payload)
    if op == OP_METRICS:
        snapshot = dict(state.metrics.snapshot())
        snapshot.update(
            worker_id=state.spec.worker_id,
            shards=state.pool.num_shards,
            version=state.effective_version,
            bootstrap_history_length=len(state.spec.history),
            histograms=state.metrics.histogram_snapshot(),
        )
        return snapshot
    if op == OP_PING:
        return ping_reply(
            state.effective_version, state.metrics.uptime_seconds
        )
    raise ClusterError(f"unknown worker op: {op!r}")


def worker_main(spec: WorkerSpec, conn) -> None:
    """Process entry point: bootstrap, then serve the pipe until EOF,
    an explicit stop, or the parent disappearing."""
    # The coordinator owns shutdown: a Ctrl-C or a group-delivered
    # SIGTERM (systemd, `kill -- -pgid`) hits the worker processes too,
    # but workers must keep draining until the coordinator's serve loop
    # has emitted pending responses and sends stop (or closes the
    # pipe). Forced teardown still works: the coordinator escalates to
    # SIGKILL for a worker that ignores its stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # Adopt the coordinator's tracing configuration (same sink file —
    # O_APPEND keeps multi-process lines whole; the deterministic head
    # sample keeps keep/drop decisions consistent across processes).
    configure_from(spec.trace)
    try:
        state = bootstrap(spec)
    except Exception as exc:  # noqa: BLE001 — report, then die visibly
        try:
            conn.send(
                (STATUS_ERROR, f"worker bootstrap failed: {exc}")
            )
        except OSError:
            pass
        conn.close()
        return
    conn.send(
        (
            STATUS_OK,
            {
                "version": state.effective_version,
                "shards": state.pool.num_shards,
            },
        )
    )
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # coordinator is gone; nothing left to serve
        op, payload = message
        if op == OP_STOP:
            try:
                conn.send((STATUS_OK, None))
            except OSError:
                pass
            break
        try:
            reply = _dispatch(state, op, payload)
        except ReproError as exc:
            response = (STATUS_ERROR, str(exc))
        except Exception as exc:  # noqa: BLE001 — never a silent hang
            response = (STATUS_ERROR, f"{type(exc).__name__}: {exc}")
        else:
            response = (STATUS_OK, reply)
        try:
            conn.send(response)
        except OSError:
            break
    conn.close()
