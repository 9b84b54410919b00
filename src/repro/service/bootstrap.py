"""Building a serving stack from a collection path — the one code path
behind ``repro serve``, ``repro batch``, ``repro cluster serve``, and
every gateway tenant.

This used to live inside the CLI as ``argparse.Namespace`` plumbing;
the gateway's tenant registry needs the identical behaviour (snapshot
restore with substrate, WAL wrap + replay, pool + scheduler wiring)
per *tenant*, so the logic lives here with plain parameters and the CLI
delegates. One path means a tenant served through the gateway can never
drift from what ``repro serve`` would have built for the same flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

from repro.core.config import FilterConfig
from repro.datasets.collection import SetCollection
from repro.datasets.io import load_collection_auto
from repro.errors import InvalidParameterError
from repro.service.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.pool import EnginePool
from repro.service.scheduler import QueryScheduler


def substrate_descriptor(
    *, jaccard: bool = False, dim: int = 64, alpha: float = 0.8
) -> dict:
    """The substrate description selected by ``jaccard``/``dim``
    (manifest schema) — without building any artifacts, for callers
    that only ship the description (e.g. ``cluster bench``)."""
    if jaccard:
        return {"kind": "qgram-jaccard", "q": 3, "alpha": alpha}
    return {
        "kind": "hashing-cosine",
        "dim": dim,
        "n_min": 3,
        "n_max": 5,
        "salt": "hashing-embedding",
        "batch_size": 100,
    }


def build_substrate(
    collection: SetCollection,
    *,
    jaccard: bool = False,
    dim: int = 64,
    alpha: float = 0.8,
):
    """The ``(token_index, sim, descriptor)`` selected by
    ``jaccard``/``dim``.

    The descriptor is what ``index build`` persists in the snapshot
    manifest; it *parameterizes* the construction (rather than being
    written down separately), and the construction itself is the same
    :func:`~repro.cluster.worker.substrate_from_descriptor` every
    cluster worker replica uses — one code path, so a restored or
    replicated substrate can never drift from the one built here.
    """
    from repro.cluster.worker import substrate_from_descriptor

    descriptor = substrate_descriptor(jaccard=jaccard, dim=dim, alpha=alpha)
    index, sim = substrate_from_descriptor(descriptor, collection.vocabulary)
    return index, sim, descriptor


def load_serving_stack(
    path: str | Path,
    *,
    alpha: float = 0.8,
    jaccard: bool = False,
    dim: int = 64,
):
    """``(collection, token_index, sim, descriptor, snapshot_path)``
    for a search-capable command.

    Snapshot inputs restore their persisted substrate (the snapshot's
    configuration wins over ``jaccard``/``dim``) and come back as a
    mutable overlay adopting the persisted postings — no re-index, and
    the serve ops can mutate it. JSON/CSV inputs build the substrate
    from the flags. ``descriptor`` is the substrate's manifest-schema
    description (what cluster workers rebuild their replica index
    from); ``snapshot_path`` is non-None when the input was a snapshot,
    so cluster workers can bootstrap by loading it themselves.
    """
    from repro.store.snapshot import SNAPSHOT_SUFFIXES, load_snapshot

    if Path(path).suffix.lower() in SNAPSHOT_SUFFIXES:
        loaded = load_snapshot(path)
        overlay = loaded.mutable()
        if loaded.token_index is not None:
            substrate = loaded.manifest.substrate or {}
            index_alpha = substrate.get("alpha")
            if index_alpha is not None and alpha < float(index_alpha):
                # A prefix-Jaccard index is only exact at or above the
                # alpha it was built for; serving below it would
                # silently drop matches in [alpha, index_alpha).
                raise InvalidParameterError(
                    f"snapshot's {substrate.get('kind')} index was built "
                    f"for alpha >= {index_alpha}; rebuild it ('repro "
                    f"index build ... --alpha {alpha}') to serve "
                    f"alpha {alpha}"
                )
            return (
                overlay,
                loaded.token_index,
                loaded.sim,
                loaded.manifest.substrate,
                str(path),
            )
        index, sim, descriptor = build_substrate(
            overlay, jaccard=jaccard, dim=dim, alpha=alpha
        )
        return overlay, index, sim, descriptor, str(path)
    collection = load_collection_auto(path)
    index, sim, descriptor = build_substrate(
        collection, jaccard=jaccard, dim=dim, alpha=alpha
    )
    return collection, index, sim, descriptor, None


@dataclass
class ServingStack:
    """One fully wired serving stack (what ``repro serve`` runs and what
    a gateway tenant owns): the scheduler in front, plus the pieces a
    caller may need to introspect or shut down.

    ``pool`` is an :class:`EnginePool` for in-process serving or a
    :class:`~repro.cluster.coordinator.ClusterPool` when the stack was
    built with ``cluster_workers`` — both present the same
    ``SearchBackend`` surface to the scheduler."""

    scheduler: QueryScheduler
    pool: "EnginePool | object"
    collection: SetCollection
    wal: object | None
    replayed: int
    descriptor: dict | None
    snapshot_path: str | None

    def close(self) -> None:
        """Drain the scheduler and flush/close the WAL (idempotent)."""
        self.scheduler.shutdown()
        self.pool.shutdown()


def build_serving_stack(
    collection_path: str | Path,
    *,
    alpha: float = 0.8,
    jaccard: bool = False,
    dim: int = 64,
    iub_mode: str = "paper",
    shards: int = 1,
    parallel_shards: bool = False,
    workers: int = 1,
    max_batch: int = 8,
    cache: ResultCache | None = None,
    cache_size: int | None = 1024,
    wal_path: str | Path | None = None,
    cache_namespace: Hashable | None = None,
    metrics: ServiceMetrics | None = None,
    cluster_workers: int | None = None,
    cluster_replicas: int = 1,
) -> ServingStack:
    """Load a collection and wire the full serving stack around it.

    ``cache`` (an existing, possibly shared cache) wins over
    ``cache_size`` (build a private one; 0/None disables caching).
    ``wal_path`` wraps the collection in a mutable overlay, replays any
    existing records, and makes accepted mutations durable.
    ``cache_namespace`` tags this stack's cache keys (see
    :class:`~repro.service.scheduler.QueryScheduler`).
    ``cluster_workers`` switches the backend to a multi-process
    :class:`~repro.cluster.coordinator.ClusterPool` with that many
    worker processes (``shards`` then means engines per worker); WAL
    records replay through the cluster's bootstrap path so worker
    replicas and the coordinator derive identical state.
    ``cluster_replicas`` spawns that many processes per partition slot
    (failover reads; ignored for in-process serving).
    """
    from repro.store.wal import WriteAheadLog, pending_records, replay_pending

    collection, index, sim, descriptor, snapshot_path = load_serving_stack(
        collection_path, alpha=alpha, jaccard=jaccard, dim=dim
    )
    # Snapshot inputs may carry the WAL-compaction handshake: records
    # already folded into the snapshot must not be replayed a second
    # time if a crash landed between the snapshot replace and the WAL
    # reset (see repro.store.wal.pending_records).
    snapshot_manifest = None
    if snapshot_path is not None and wal_path is not None:
        from repro.store.snapshot import inspect_snapshot

        snapshot_manifest = inspect_snapshot(snapshot_path)
    config = FilterConfig.koios(iub_mode=iub_mode)
    wal = None
    replayed = 0
    if cluster_workers is not None:
        if cluster_workers < 1:
            raise InvalidParameterError("cluster_workers must be >= 1")
        from repro.cluster.coordinator import ClusterPool

        bootstrap_records: tuple = ()
        if wal_path is not None:
            if not hasattr(collection, "insert"):
                from repro.store.mutable import MutableSetCollection

                collection = MutableSetCollection(collection)
            wal = WriteAheadLog(wal_path)
            # NOT replay_into: the cluster needs the version-0 base and
            # applies prior mutations itself, so restarted workers can
            # reconstruct byte-identical state from base + history.
            bootstrap_records = tuple(
                pending_records(wal, snapshot_manifest)
            )
            replayed = len(bootstrap_records)
        pool = ClusterPool(
            collection,
            index,
            sim,
            alpha=alpha,
            workers=cluster_workers,
            replicas=cluster_replicas,
            shards=shards,
            config=config,
            snapshot_path=snapshot_path,
            # load_serving_stack already hashed this very file while
            # loading the coordinator replica (load_snapshot defaults
            # to verify=True); a second coordinator-side pass would be
            # pure duplicate I/O.
            verify_snapshot=False,
            substrate=descriptor,
            bootstrap_records=bootstrap_records,
        )
    else:
        if wal_path is not None:
            if not hasattr(collection, "insert"):
                # JSON/CSV input: wrap the overlay here (snapshot inputs
                # already are one, with their postings adopted).
                from repro.store.mutable import MutableSetCollection

                collection = MutableSetCollection(collection)
            wal = WriteAheadLog(wal_path)
            replayed = replay_pending(wal, snapshot_manifest, collection)
            if replayed:
                extend = getattr(index, "extend", None)
                if extend is not None:
                    extend(collection.vocabulary)
        pool = EnginePool(
            collection,
            index,
            sim,
            alpha=alpha,
            shards=shards,
            parallel_shards=parallel_shards,
            config=config,
        )
    if cache is None and cache_size:
        cache = ResultCache(capacity=cache_size)
    scheduler = QueryScheduler(
        pool,
        cache=cache,
        metrics=metrics,
        max_batch=max_batch,
        workers=workers,
        wal=wal,
        cache_namespace=cache_namespace,
    )
    return ServingStack(
        scheduler=scheduler,
        pool=pool,
        collection=collection,
        wal=wal,
        replayed=replayed,
        descriptor=descriptor,
        snapshot_path=snapshot_path,
    )
