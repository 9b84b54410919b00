"""Multi-process scatter-gather serving.

Puts independent worker processes on every core — the GIL caps what the
threaded :class:`~repro.service.pool.EnginePool` can extract from the
pure-Python KOIOS hot path, so scale-out beyond one core means
processes::

    QueryScheduler                    (unchanged: cache, dedup, batching)
        └── ClusterPool               (coordinator: drain once, scatter,
            │                          merge exactly, version barrier)
            ├── worker 0  ── EnginePool over partition 0
            ├── worker 1  ── EnginePool over partition 1
            └── ...        (bootstrap: snapshot or shipped state,
                            + WAL-record history replay)

* :class:`ClusterPool` — the coordinator-side
  :class:`~repro.service.backend.SearchBackend`
* :mod:`repro.cluster.worker` — the spawn-safe worker process
* :class:`ClusterMetrics` — fleet rollup of per-worker metrics
* :mod:`repro.cluster.bench` — the scaling benchmark harness behind
  ``repro cluster bench``

See ``docs/cluster.md`` for the architecture and the exactness and
failure-semantics guarantees.
"""

from repro.cluster.coordinator import ClusterPool
from repro.cluster.messages import WorkerSpec
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.worker import (
    bootstrap,
    substrate_from_descriptor,
    worker_main,
)

__all__ = [
    "ClusterMetrics",
    "ClusterPool",
    "WorkerSpec",
    "bootstrap",
    "substrate_from_descriptor",
    "worker_main",
]
