"""``ServiceMetrics.snapshot()`` keys and values for a fixed event
sequence (phase totals/calls go through ``PhaseTimer.add``; the three
latency percentiles come from one reservoir sort)."""

from repro.service import ServiceMetrics


def test_snapshot_phase_and_latency_keys():
    now = [50.0]
    metrics = ServiceMetrics(clock=lambda: now[0])
    for name, seconds in (("search", 0.5), ("search", 1.5), ("drain", 0.25)):
        with metrics.phase(name):
            now[0] += seconds
    for value in range(1, 101):
        metrics.record_completed(value / 1000.0)
    snapshot = metrics.snapshot()
    assert snapshot["seconds_search"] == 2.0
    assert snapshot["calls_search"] == 2
    assert snapshot["mean_seconds_search"] == 1.0
    assert snapshot["seconds_drain"] == 0.25
    assert snapshot["calls_drain"] == 1
    assert snapshot["mean_seconds_drain"] == 0.25
    assert snapshot["latency_p50"] == 0.051
    assert snapshot["latency_p95"] == 0.096
    assert snapshot["latency_p99"] == 0.1
    assert metrics.latency_percentile(0.5) == 0.051
    assert metrics.timer.calls == {"search": 2, "drain": 1}
