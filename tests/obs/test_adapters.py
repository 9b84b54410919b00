"""The metrics → Prometheus adapters, fed by real ServiceMetrics and
synthetic cluster snapshots (the shapes the coordinator ships)."""

from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import PromRegistry
from repro.obs.adapters import (
    cluster_to_registry,
    gateway_to_registry,
    service_to_registry,
)
from repro.obs.prom import parse_exposition
from repro.service.metrics import ServiceMetrics


@pytest.fixture()
def metrics():
    metrics = ServiceMetrics()
    metrics.record_accepted()
    metrics.record_accepted()
    metrics.record_completed(0.010)
    metrics.record_cache_hit()
    metrics.record_rejected()
    metrics.record_shed()
    metrics.record_batch(2)
    with metrics.phase("search"):
        pass
    return metrics


class TestServiceAdapter:
    def test_counters_gauges_and_histograms_land(self, metrics):
        registry = PromRegistry()
        service_to_registry(registry, metrics, tenant="alpha")
        values = parse_exposition(registry.render())
        assert values['repro_requests_total{tenant="alpha"}'] == 2
        assert values['repro_completed_total{tenant="alpha"}'] == 2
        assert values['repro_rejected_total{tenant="alpha"}'] == 1
        assert values['repro_shed_total{tenant="alpha"}'] == 1
        assert values['repro_cache_hits_total{tenant="alpha"}'] == 1
        assert values['repro_batches_total{tenant="alpha"}'] == 1
        assert values['repro_uptime_seconds{tenant="alpha"}'] > 0
        assert values['repro_request_latency_seconds_count{tenant="alpha"}'] \
            == 2
        assert values[
            'repro_phase_latency_seconds_count{tenant="alpha",phase="search"}'
        ] == 1
        assert values[
            'repro_phase_calls_total{tenant="alpha",phase="search"}'
        ] == 1

    def test_rescrape_is_monotone_when_the_source_resets(self, metrics):
        registry = PromRegistry()
        service_to_registry(registry, metrics, tenant="alpha")
        fresh = ServiceMetrics()  # a restarted scheduler: all zeros
        service_to_registry(registry, fresh, tenant="alpha")
        values = parse_exposition(registry.render())
        assert values['repro_requests_total{tenant="alpha"}'] == 2

    def test_histogram_buckets_are_cumulative(self, metrics):
        registry = PromRegistry()
        service_to_registry(registry, metrics, tenant="alpha")
        text = registry.render()
        rows = [
            line for line in text.splitlines()
            if line.startswith("repro_request_latency_seconds_bucket")
            and 'tenant="alpha"' in line
        ]
        counts = [float(row.rpartition(" ")[2]) for row in rows]
        assert counts == sorted(counts)
        assert counts[-1] == 2  # +Inf bucket carries the full count


class FakeQuota:
    def available(self, kind):
        return {"search": 7.0, "mutation": float("inf")}[kind]


class TestGatewayAdapter:
    def test_per_tenant_projection_plus_quota_and_connections(
        self, metrics
    ):
        tenant = SimpleNamespace(
            name="alpha", metrics=metrics, quota=FakeQuota()
        )
        registry = PromRegistry()
        gateway_to_registry(registry, [tenant], connections=3)
        values = parse_exposition(registry.render())
        assert values['repro_requests_total{tenant="alpha"}'] == 2
        assert values[
            'repro_quota_available_tokens{tenant="alpha",kind="search"}'
        ] == 7
        assert values[
            'repro_quota_available_tokens{tenant="alpha",kind="mutation"}'
        ] == float("inf")
        assert values["repro_gateway_connections"] == 3


CLUSTER_SNAPSHOT = {
    "backend": "cluster",
    "rollup": {
        "workers": 2, "queries": 5, "mutations": 1, "restarts": 1,
    },
    "per_worker": {
        "0": {"requests": 5, "completed": 5, "errors": 0},
        "1": {
            "requests": 3, "completed": 2, "errors": 1,
            "histograms": {
                "phases": {
                    "search": {
                        "bounds": [0.1, 1.0],
                        "counts": [2, 1],
                        "sum": 0.9,
                        "count": 3,
                    }
                }
            },
        },
    },
}


class TestClusterAdapter:
    def test_rollup_and_per_worker_series(self):
        registry = PromRegistry()
        cluster_to_registry(registry, CLUSTER_SNAPSHOT, tenant="alpha")
        values = parse_exposition(registry.render())
        assert values['repro_cluster_workers{tenant="alpha"}'] == 2
        assert values['repro_cluster_queries_total{tenant="alpha"}'] == 5
        assert values['repro_cluster_restarts_total{tenant="alpha"}'] == 1
        assert values[
            'repro_worker_requests_total{tenant="alpha",worker="0"}'
        ] == 5
        assert values[
            'repro_worker_errors_total{tenant="alpha",worker="1"}'
        ] == 1
        assert values[
            'repro_worker_phase_latency_seconds_count'
            '{tenant="alpha",worker="1",phase="search"}'
        ] == 3

    def test_worker_restart_cannot_lower_worker_counters(self):
        registry = PromRegistry()
        cluster_to_registry(registry, CLUSTER_SNAPSHOT, tenant="alpha")
        restarted = {
            "backend": "cluster",
            "rollup": {"workers": 2, "queries": 5, "mutations": 1,
                       "restarts": 2},
            "per_worker": {
                "0": {"requests": 5, "completed": 5, "errors": 0},
                # Worker 1 restarted: fresh, smaller totals.
                "1": {"requests": 0, "completed": 0, "errors": 0},
            },
        }
        cluster_to_registry(registry, restarted, tenant="alpha")
        values = parse_exposition(registry.render())
        assert values[
            'repro_worker_requests_total{tenant="alpha",worker="1"}'
        ] == 3
        assert values['repro_cluster_restarts_total{tenant="alpha"}'] == 2


class TestGoldenExposition:
    """A fixed event sequence renders byte-for-byte what it rendered
    before histogram children became ``StreamingHistogram``s
    (``golden_metrics.txt`` was produced by that earlier code): edge
    values, overflow, both the adapter and the direct-observe path."""

    def test_fixed_sequence_matches_the_golden_text(self):
        now = [100.0]
        metrics = ServiceMetrics(clock=lambda: now[0])
        for _ in range(4):
            metrics.record_accepted()
        for name, seconds in (
            ("search", 0.003), ("search", 0.25), ("drain", 20.0),
            ("merge", 0.0),
        ):
            with metrics.phase(name):
                now[0] += seconds
        for seconds in (0.0005, 0.02, 0.02, 11.5):
            metrics.record_completed(seconds)
        metrics.record_cache_hit()
        registry = PromRegistry()
        service_to_registry(registry, metrics, tenant="alpha")
        direct = registry.histogram(
            "direct_seconds", "Directly observed", ("kind",),
            bounds=(0.1, 1.0),
        ).labels("x")
        for value in (0.1, 0.05, 1.0, 1.5, 0.7):
            direct.observe(value)
        golden = Path(__file__).with_name("golden_metrics.txt").read_text()
        assert registry.render() == golden
