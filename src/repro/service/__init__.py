"""The concurrent query-serving subsystem.

Turns the single-shot :class:`~repro.core.koios.KoiosSearchEngine` into
a long-lived server::

    scheduler -> result cache -> engine pool (shards) -> top-k merge

* :class:`QueryScheduler` — admission, in-flight dedup, micro-batching
* :class:`ResultCache` — versioned LRU over finished results
* :class:`EnginePool` — warm per-shard engines, exact global merge
* :class:`SearchBackend` — the transport-agnostic backend protocol the
  scheduler runs over (:class:`EnginePool` in-process, or the
  multi-process :class:`~repro.cluster.ClusterPool`)
* :class:`ServiceMetrics` — QPS, latency quantiles, hit/occupancy rates
* :mod:`repro.service.protocol` — the wire protocol (decode a line,
  dispatch a control op, encode a reply) every transport shares
* :mod:`repro.service.server` — the stream transports over it:
  ``repro serve`` and ``repro batch``
* :mod:`repro.service.bootstrap` — one construction path
  (:func:`build_serving_stack`) shared by ``repro serve``, ``repro
  batch``, and every tenant of the network gateway
  (:mod:`repro.gateway`)

See ``docs/service.md`` for the architecture walk-through.
"""

from repro.service.backend import SearchBackend
from repro.service.bootstrap import (
    ServingStack,
    build_serving_stack,
    build_substrate,
    load_serving_stack,
    substrate_descriptor,
)
from repro.service.cache import CacheKey, ResultCache, make_key
from repro.service.metrics import ServiceMetrics
from repro.service.pool import EnginePool, ReadWriteLock, merge_results
from repro.service.protocol import control as control_line  # public name
from repro.service.request import (
    Hit,
    SearchRequest,
    SearchResponse,
    hits_from_result,
)
from repro.service.scheduler import QueryScheduler, Ticket
from repro.service.server import (
    GracefulShutdown,
    parse_request_lines,
    run_batch,
    serve_lines,
)

__all__ = [
    "CacheKey",
    "EnginePool",
    "GracefulShutdown",
    "Hit",
    "QueryScheduler",
    "ReadWriteLock",
    "ResultCache",
    "SearchBackend",
    "SearchRequest",
    "SearchResponse",
    "ServiceMetrics",
    "ServingStack",
    "Ticket",
    "build_serving_stack",
    "build_substrate",
    "control_line",
    "hits_from_result",
    "load_serving_stack",
    "make_key",
    "merge_results",
    "parse_request_lines",
    "run_batch",
    "serve_lines",
    "substrate_descriptor",
]
