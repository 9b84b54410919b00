"""Adapters: the existing metrics classes → Prometheus families.

The repo already has three bookkeeping systems —
:class:`~repro.service.metrics.ServiceMetrics` (per scheduler),
:class:`~repro.cluster.metrics.ClusterMetrics` (per fleet), and the
gateway's per-tenant rollup — and none of them should grow a second
export path.  These functions *project* their current state into a
long-lived :class:`~repro.obs.prom.PromRegistry` on every scrape:

* plain counters go through ``set_at_least`` (monotone across scrapes
  even when a source resets, e.g. a restarted cluster worker);
* gauges overwrite;
* latency histograms copy the bounded
  :class:`~repro.obs.histogram.StreamingHistogram` states wholesale
  (their per-bucket counts are already cumulative-in-time by
  construction).

Metric names are documented in ``docs/observability.md``; keep the
table and this module in sync.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.obs.histogram import StreamingHistogram
from repro.obs.prom import PromRegistry

#: Help text per :data:`repro.obs.accounting.RESOURCE_FIELDS` entry;
#: each becomes a ``repro_tenant_<field>_total{tenant=...}`` counter.
_RESOURCE_HELP = {
    "searches": "Full searches charged to the tenant",
    "cpu_seconds": "Engine CPU-seconds attributed to the tenant",
    "wall_seconds": "Wall-clock seconds spent serving the tenant",
    "candidates": "Candidate sets examined for the tenant",
    "stream_tuples": "Token-stream tuples drained for the tenant",
    "em_matchings": "Exact-matching resolutions run for the tenant",
    "matmul_flops": "Estimated verification matmul FLOPs",
    "bytes_scanned": "Estimated verification bytes scanned",
    "cache_hits": "Result-cache hits charged to the tenant",
    "cache_misses": "Cache-missing searches charged to the tenant",
    "wal_bytes": "Write-ahead-log bytes durably written",
}

_COUNTERS = (
    ("requests", "repro_requests_total", "Requests accepted"),
    ("completed", "repro_completed_total", "Requests completed"),
    ("errors", "repro_errors_total", "Requests failed"),
    ("rejected", "repro_rejected_total", "Requests refused by quota/auth"),
    ("shed", "repro_shed_total", "Accepted requests shed under overload"),
    ("cache_hits", "repro_cache_hits_total", "Result-cache hits"),
    ("deduplicated", "repro_deduplicated_total",
     "Requests coalesced onto in-flight twins"),
    ("degraded", "repro_degraded_total",
     "Requests answered with partial partition coverage"),
    ("batches", "repro_batches_total", "Engine micro-batches executed"),
    ("batched_requests", "repro_batched_requests_total",
     "Requests carried by micro-batches"),
)


def service_to_registry(
    registry: PromRegistry,
    metrics: Any,
    *,
    tenant: str = "default",
) -> None:
    """Project one scheduler's :class:`ServiceMetrics` into ``registry``
    under a ``tenant`` label."""
    for attr, name, help_text in _COUNTERS:
        family = registry.counter(name, help_text, ("tenant",))
        family.labels(tenant).set_at_least(float(getattr(metrics, attr)))

    registry.gauge(
        "repro_uptime_seconds", "Scheduler uptime", ("tenant",)
    ).labels(tenant).set(metrics.uptime_seconds)
    registry.gauge(
        "repro_queue_depth", "Admission queue depth", ("tenant",)
    ).labels(tenant).set(float(metrics.queue_depth))
    registry.counter(
        "repro_queue_depth_peak", "Peak admission queue depth", ("tenant",)
    ).labels(tenant).set_at_least(float(metrics.queue_depth_peak))

    engine = metrics.engine_stats
    registry.counter(
        "repro_engine_stream_tuples_total",
        "Token-stream tuples drained by the engine",
        ("tenant",),
    ).labels(tenant).set_at_least(float(engine.stream_tuples))
    registry.counter(
        "repro_engine_candidates_total",
        "Candidate sets examined by refinement",
        ("tenant",),
    ).labels(tenant).set_at_least(float(engine.candidates))

    resources = getattr(metrics, "resources", None)
    if resources is not None:
        for field_name, value in resources.snapshot().items():
            registry.counter(
                f"repro_tenant_{field_name}_total",
                _RESOURCE_HELP.get(
                    field_name, f"Tenant resource meter: {field_name}"
                ),
                ("tenant",),
            ).labels(tenant).set_at_least(float(value))

    slo = getattr(metrics, "slo", None)
    if slo is not None:
        snap = slo.snapshot()
        registry.gauge(
            "repro_slo_alerting",
            "1 while any burn-rate alert fires for the tenant",
            ("tenant",),
        ).labels(tenant).set(1.0 if snap["alerting"] else 0.0)
        burn = registry.gauge(
            "repro_slo_burn_rate",
            "Error-budget burn rate per objective and window",
            ("tenant", "objective", "window"),
        )
        for objective_name, objective in snap["objectives"].items():
            for window, rate in objective["burn_rates"].items():
                burn.labels(tenant, objective_name, window).set(rate)

    hists = metrics.histogram_snapshot()
    _load_histogram(
        registry,
        "repro_request_latency_seconds",
        "End-to-end request latency",
        ("tenant",),
        (tenant,),
        hists["latency"],
    )
    for phase, state in sorted(hists["phases"].items()):
        _load_histogram(
            registry,
            "repro_phase_latency_seconds",
            "Per-call latency of one serving phase",
            ("tenant", "phase"),
            (tenant, phase),
            state,
        )
    # Per-phase running totals (the engine's refinement/postprocessing
    # phases accumulate into the timer without per-call phase() calls,
    # so the totals are the complete per-phase attribution).
    totals = dict(metrics.timer.totals)
    calls = dict(metrics.timer.calls)
    for phase in sorted(totals):
        registry.counter(
            "repro_phase_seconds_total",
            "Cumulative seconds spent in one serving phase",
            ("tenant", "phase"),
        ).labels(tenant, phase).set_at_least(float(totals[phase]))
    for phase in sorted(calls):
        registry.counter(
            "repro_phase_calls_total",
            "Calls into one serving phase",
            ("tenant", "phase"),
        ).labels(tenant, phase).set_at_least(float(calls[phase]))


def _load_histogram(
    registry: PromRegistry,
    name: str,
    help_text: str,
    label_names: tuple[str, ...],
    label_values: tuple[str, ...],
    state: Mapping[str, Any],
) -> None:
    family = registry.histogram(
        name, help_text, label_names, bounds=state["bounds"]
    )
    family.replace(label_values, StreamingHistogram.from_state(state))


def gateway_to_registry(
    registry: PromRegistry,
    tenants: Iterable[Any],
    *,
    connections: int | None = None,
) -> None:
    """Project every gateway tenant (scheduler metrics + quota gauges)
    into ``registry``; one ``tenant`` label value per tenant."""
    from repro.gateway.quota import MUTATION, SEARCH

    for tenant in tenants:
        service_to_registry(registry, tenant.metrics, tenant=tenant.name)
        quota_family = registry.gauge(
            "repro_quota_available_tokens",
            "Token-bucket balance (+Inf when unlimited)",
            ("tenant", "kind"),
        )
        for kind in (SEARCH, MUTATION):
            quota_family.labels(tenant.name, kind).set(
                tenant.quota.available(kind)
            )
    if connections is not None:
        registry.gauge(
            "repro_gateway_connections", "Open gateway connections"
        ).labels().set(float(connections))


def cluster_to_registry(
    registry: PromRegistry,
    cluster_snapshot: Mapping[str, Any],
    *,
    tenant: str = "default",
) -> None:
    """Project a ``ClusterMetrics.snapshot()`` payload (coordinator
    counters + per-worker rows) into ``registry``."""
    rollup = cluster_snapshot.get("rollup", {})
    registry.gauge(
        "repro_cluster_workers", "Live cluster workers", ("tenant",)
    ).labels(tenant).set(float(rollup.get("workers", 0)))
    for key, name, help_text in (
        ("queries", "repro_cluster_queries_total",
         "Scatter-gather queries coordinated"),
        ("mutations", "repro_cluster_mutations_total",
         "Mutations replicated fleet-wide"),
        ("restarts", "repro_cluster_restarts_total",
         "Worker processes restarted after a crash"),
        ("failovers", "repro_cluster_failovers_total",
         "Partition reads failed over to a sibling replica"),
        ("degraded", "repro_cluster_degraded_total",
         "Queries answered with partial partition coverage"),
        ("worker_timeouts", "repro_cluster_worker_timeouts_total",
         "Worker replies that missed their deadline"),
        ("worker_crashes", "repro_cluster_worker_crashes_total",
         "Worker pipe failures classified as crashes"),
    ):
        registry.counter(name, help_text, ("tenant",)).labels(
            tenant
        ).set_at_least(float(rollup.get(key, 0)))

    per_worker = cluster_snapshot.get("per_worker", {})
    for worker_id, row in sorted(per_worker.items()):
        labels = (tenant, str(worker_id))
        for key, name, help_text in (
            ("requests", "repro_worker_requests_total",
             "Partial searches accepted by one worker"),
            ("completed", "repro_worker_completed_total",
             "Partial searches completed by one worker"),
            ("errors", "repro_worker_errors_total",
             "Partial searches failed on one worker"),
        ):
            registry.counter(
                name, help_text, ("tenant", "worker")
            ).labels(*labels).set_at_least(float(row.get(key, 0)))
        hists = row.get("histograms")
        if isinstance(hists, Mapping):
            for phase, state in sorted(
                hists.get("phases", {}).items()
            ):
                _load_histogram(
                    registry,
                    "repro_worker_phase_latency_seconds",
                    "Per-call phase latency on one cluster worker",
                    ("tenant", "worker", "phase"),
                    (tenant, str(worker_id), phase),
                    state,
                )
