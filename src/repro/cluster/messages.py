"""The coordinator <-> worker wire protocol.

Everything that crosses a process boundary is defined here, so the
whole IPC surface is auditable in one place. Messages are plain tuples
``(op, payload)`` sent over ``multiprocessing`` pipe connections; every
payload is built from picklable primitives, dataclasses, and the core
result types — nothing that captures a live engine, lock, or file
handle, which is what keeps the protocol spawn-safe.

Mutations travel as ``Mutation.to_obj()`` dicts
(:class:`~repro.store.mutation.Mutation`) — the same ``{"op", "name",
"tokens"}`` body :mod:`repro.store.wal` persists. One representation serves three jobs:
durable logging on the coordinator, live replication to workers, and
replay when a crashed worker re-bootstraps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.config import FilterConfig
from repro.errors import ClusterError
from repro.index.token_stream import MaterializedTokenStream, StreamTuple
from repro.obs import SpanContext

#: Wire operations the worker loop understands.
OP_SEARCH = "search"
OP_MUTATE = "mutate"
OP_METRICS = "metrics"
OP_PING = "ping"
OP_STOP = "stop"

#: Response statuses.
STATUS_OK = "ok"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs to bootstrap its replica.

    A spec is self-contained: a freshly spawned process (including a
    *replacement* for a crashed worker) reconstructs its exact serving
    state from the spec alone —

    ``snapshot_path`` **or** ``sets``/``names``
        the base collection. Snapshot bootstrap re-uses the store
        layer's checksummed format (postings and the embedding matrix
        come back as buffer reads); in-memory shipping is the fallback
        when no snapshot exists and pickles the raw sets through the
        spawn call.
    ``substrate``
        the ``(token_index, sim)`` descriptor (same schema the snapshot
        manifest persists). Ignored when a snapshot carries its own.
    ``history``
        every WAL record the coordinator has applied since the base
        state, replayed in order during bootstrap — this is what makes
        restart-and-rebootstrap exact rather than approximate.
    ``base_version``
        the coordinator collection's version at base-state capture;
        workers report ``base_version + local mutations`` so version
        barriers compare like for like.

    ``partition_index``/``num_workers`` pin the worker's slice of the
    deterministic set-id split (see ``EnginePool(partition=...)``), and
    ``shards``/``shard_seed``/``alpha``/``config`` mirror the
    coordinator's engine parameters so the fleet's layout is exactly
    the one an equivalent single-process pool would use.
    """

    worker_id: int
    num_workers: int
    shards: int
    shard_seed: int
    alpha: float
    config: FilterConfig | None
    snapshot_path: str | None
    sets: tuple[tuple[str, ...], ...] | None
    names: tuple[str, ...] | None
    substrate: dict[str, Any] | None
    base_version: int
    history: tuple[dict[str, Any], ...]
    #: The coordinator's tracing configuration
    #: (:func:`repro.obs.trace_config`), so a spawned worker appends
    #: spans to the same sink; None leaves worker tracing disabled.
    trace: dict[str, Any] | None = None
    #: Which replica of the partition this process is (0-based).
    #: Replicas of one partition serve the identical slice — the field
    #: only labels logs, traces, and metrics.
    replica: int = 0
    #: Injected faults for this spawn (the chaos harness's
    #: :class:`~repro.cluster.faults.FaultInjector` arms these);
    #: ``{"bootstrap_fail": True}`` makes bootstrap die with an
    #: injected error. None in production.
    faults: dict[str, Any] | None = None
    #: Whether bootstrap re-hashes the snapshot against its manifest
    #: checksum. The coordinator verifies the file ONCE
    #: (:func:`repro.store.snapshot.verify_snapshot_checksum`) before
    #: spawning, so specs ship False — R×P workers (and every revival /
    #: re-bootstrap, which reuses the same spec factory) then map the
    #: already-verified file instead of N processes re-reading it.
    verify_snapshot: bool = False


def encode_stream(
    stream: MaterializedTokenStream | None,
) -> dict[str, Any] | None:
    """Project a drained stream onto wire primitives (None passes
    through: the worker drains locally against its own replica)."""
    if stream is None:
        return None
    return {
        "tuples": list(stream),
        "query_tokens": (
            None if stream.query_tokens is None
            else sorted(stream.query_tokens)
        ),
        "alpha": stream.alpha,
    }


def decode_stream(
    payload: dict[str, Any] | None,
) -> MaterializedTokenStream | None:
    if payload is None:
        return None
    tuples: list[StreamTuple] = [tuple(t) for t in payload["tuples"]]
    query_tokens = payload["query_tokens"]
    return MaterializedTokenStream(
        tuples,
        query_tokens=None if query_tokens is None else frozenset(query_tokens),
        alpha=payload["alpha"],
    )


def encode_trace(context: SpanContext | None) -> dict[str, Any] | None:
    """Project a span context onto wire primitives (None = untraced)."""
    return None if context is None else context.to_wire()


def decode_trace(payload: dict[str, Any] | None) -> SpanContext | None:
    """Rebuild the coordinator-side span context a search payload
    carried; tolerant of absent/malformed input (tracing must never
    fail a search)."""
    return SpanContext.from_wire(payload)


def ping_reply(version: int, uptime_seconds: float) -> dict[str, Any]:
    """The ``OP_PING`` acknowledgement: the version-barrier value plus
    the replica's uptime — a probe that sees uptime drop without a
    coordinator-recorded restart is looking at a silently replaced
    process."""
    return {
        "version": version,
        "uptime_seconds": round(uptime_seconds, 6),
    }


def check_version(observed: int, expected: int, *, where: str) -> None:
    """The version barrier: refuse to act on divergent state.

    A worker behind the coordinator missed a mutation broadcast (it
    must re-bootstrap); a worker ahead applied something the
    coordinator never sent. Either way the replica can no longer
    guarantee bitwise-identical results, so this is a loud
    :class:`~repro.errors.ClusterError`, not a best-effort answer.
    """
    if observed != expected:
        raise ClusterError(
            f"version barrier violated in {where}: replica at "
            f"{observed}, coordinator expects {expected}"
        )
