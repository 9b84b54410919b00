"""Tracing + unified telemetry for the serving stack.

``repro.obs`` is the one subsystem that sees every layer at once:

* **Spans** (:mod:`repro.obs.span`) — a zero-dependency tracer with
  monotonic-clock spans and ``trace_id``/``parent_id`` propagation from
  the gateway line (or HTTP header) through the scheduler, the engine
  pool's shards, the columnar refinement/verification phases, and
  across the cluster wire protocol into workers.
* **Sink** (:mod:`repro.obs.sink`) — bounded, rotating JSON-lines
  output with head+tail-biased sampling: errors and slow requests are
  always kept, a deterministic hash of the ``trace_id`` samples the
  rest, and a slowest-N heap tail-biases what survives.
* **Exposition** (:mod:`repro.obs.prom`, :mod:`repro.obs.adapters`) —
  a hand-rolled Prometheus text-format registry populated from the
  existing metrics classes, served at ``GET /metrics`` on the gateway
  and as a ``prometheus`` wire op on plain ``repro serve``.
* **Inspector** (:mod:`repro.obs.inspect`) — ``repro trace
  tail|show|top`` reconstructs span trees from the sink.
* **EXPLAIN** (:mod:`repro.obs.explain`) — per-request pruning-funnel
  reports built from :class:`~repro.core.stats.SearchStats`, with
  partition-sum invariant checking.
* **Accounting** (:mod:`repro.obs.accounting`) — per-tenant resource
  meters (CPU-seconds, matmul FLOPs, bytes scanned, WAL bytes) behind
  the ``repro_tenant_*`` Prometheus series.
* **SLOs** (:mod:`repro.obs.slo`) — declarative availability/latency
  objectives with multi-window burn-rate alerting, behind the
  gateway's ``/healthz``, ``/readyz``, and ``/slo`` endpoints.

Tracing is observation-only by contract: search results are bitwise
identical with tracing enabled or disabled (enforced by randomized
equivalence tests).
"""

from repro.obs.accounting import ResourceLedger
from repro.obs.explain import build_explain, render_explain
from repro.obs.histogram import (
    DEFAULT_LATENCY_BUCKETS,
    Reservoir,
    StreamingHistogram,
)
from repro.obs.prom import PromRegistry
from repro.obs.slo import SLOMonitor
from repro.obs.sink import TraceSink
from repro.obs.span import (
    Span,
    SpanContext,
    Tracer,
    annotate,
    configure,
    configure_from,
    current_context,
    disable,
    get_tracer,
    new_span_id,
    new_trace_id,
    trace_config,
    traced_phase,
)
from repro.utils.timer import MONOTONIC, Stopwatch, timed

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MONOTONIC",
    "PromRegistry",
    "Reservoir",
    "ResourceLedger",
    "SLOMonitor",
    "Span",
    "SpanContext",
    "Stopwatch",
    "StreamingHistogram",
    "TraceSink",
    "Tracer",
    "annotate",
    "build_explain",
    "configure",
    "configure_from",
    "current_context",
    "disable",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "render_explain",
    "timed",
    "trace_config",
    "traced_phase",
]
