"""Serving-side observability.

The engine's :class:`~repro.core.stats.SearchStats` instruments one
query; :class:`ServiceMetrics` instruments the *service*: completed
request throughput (QPS), latency quantiles over a sliding window,
cache hit rate, in-flight dedup rate, and micro-batch occupancy. Phase
accounting (drain / search / merge) reuses
:class:`~repro.utils.timer.PhaseTimer`, and engine-level counters
aggregate into one long-running ``SearchStats`` via its ``merge``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.core.stats import SearchStats
from repro.obs.accounting import ResourceLedger
from repro.obs.histogram import Reservoir, StreamingHistogram
from repro.obs.prom import PromRegistry
from repro.obs.slo import SLOMonitor
from repro.utils.timer import PhaseTimer

#: Latency samples kept for quantile estimation — the reservoir size.
#: A week-long serve process holds exactly this many floats per
#: scheduler no matter how many requests it absorbs.
LATENCY_WINDOW = 4096


class ServiceMetrics:
    """Thread-safe counters and timers for one scheduler instance.

    ``slo`` is the stack's :class:`~repro.obs.slo.SLOMonitor` — pass a
    configured one (the gateway builds it from the tenant spec with the
    registry's injectable clock) or let a default-objective monitor be
    created. Every recorded completion, error, and shed feeds it, so
    burn rates stay wire-accurate by construction. ``resources`` is the
    tenant's :class:`~repro.obs.accounting.ResourceLedger`, charged on
    the same calls.
    """

    def __init__(
        self, *, clock=time.perf_counter, slo: SLOMonitor | None = None
    ) -> None:
        self._clock = clock
        self.resources = ResourceLedger()
        self.slo = slo if slo is not None else SLOMonitor(clock=clock)
        #: What the ``prometheus`` wire op renders. It lives as long as
        #: the counters it projects, which keeps them monotone across
        #: scrapes.
        self.prom = PromRegistry()
        self._lock = threading.Lock()
        self._started = clock()
        self.requests = 0
        self.completed = 0
        self.errors = 0
        self.rejected = 0
        self.shed = 0
        self.queue_depth = 0
        self.queue_depth_peak = 0
        self.cache_hits = 0
        self.deduplicated = 0
        self.degraded = 0
        self.batches = 0
        self.batched_requests = 0
        self.timer = PhaseTimer()
        self.engine_stats = SearchStats()
        # Bounded latency accounting: a fixed-size uniform reservoir
        # backs the nearest-rank percentile keys, and streaming
        # fixed-bucket histograms carry the full distribution for
        # Prometheus exposition — neither grows with request count.
        self._latencies = Reservoir(LATENCY_WINDOW)
        self._latency_hist = StreamingHistogram()
        self._phase_hists: dict[str, StreamingHistogram] = {}

    # -- recording ---------------------------------------------------------

    def record_accepted(self) -> None:
        with self._lock:
            self.requests += 1

    def record_cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1
            self.completed += 1
            self._latencies.observe(0.0)
            self._latency_hist.observe(0.0)
            self.resources.charge_cache_hit()
        self.slo.record(0.0)

    def record_deduplicated(self) -> None:
        """A request that attached to an identical in-flight computation.
        Counted separately: ``completed`` tracks finished computations and
        cache hits, not the riders that shared them."""
        with self._lock:
            self.deduplicated += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size

    def record_completed(
        self,
        seconds: float,
        stats: SearchStats | None = None,
        *,
        degraded: bool = False,
    ) -> None:
        with self._lock:
            self.completed += 1
            if degraded:
                self.degraded += 1
            self._latencies.observe(seconds)
            self._latency_hist.observe(seconds)
            if stats is not None:
                self.engine_stats.merge(stats)
            self.resources.charge_search(seconds, stats)
        # A degraded answer burns error budget: the service responded,
        # but with partial coverage — an SLO that only counted hard
        # errors would sleep through a partition outage.
        self.slo.record(seconds, error=degraded)

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1
        self.slo.record(error=True)

    def record_rejected(self) -> None:
        """A request refused before any engine work (quota exhausted or
        auth denied) — the structured-``retry_after_seconds`` path of the
        gateway. Not counted in ``requests``: rejection is the service
        protecting itself, not serving."""
        with self._lock:
            self.rejected += 1

    def record_shed(self) -> None:
        """An *accepted* request dropped under overload (its bounded
        admission queue overflowed and load-shedding evicted it,
        oldest-first)."""
        with self._lock:
            self.shed += 1
        self.slo.record(error=True)

    def record_wal_bytes(self, nbytes: int) -> None:
        """Bytes durably appended to this stack's write-ahead log."""
        with self._lock:
            self.resources.charge_wal(nbytes)

    def set_queue_depth(self, depth: int) -> None:
        """Gauge: requests currently waiting in the admission queue
        feeding this scheduler (the gateway updates it as jobs enqueue
        and dispatch; the peak is kept for the snapshot)."""
        with self._lock:
            self.queue_depth = depth
            if depth > self.queue_depth_peak:
                self.queue_depth_peak = depth

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block into :attr:`timer` under the metrics lock (worker
        threads share this object; ``PhaseTimer`` alone is not
        thread-safe)."""
        started = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - started
            with self._lock:
                self.timer.add(name, elapsed)
                hist = self._phase_hists.get(name)
                if hist is None:
                    hist = self._phase_hists[name] = StreamingHistogram()
                hist.observe(elapsed)

    # -- reading -----------------------------------------------------------

    @property
    def uptime_seconds(self) -> float:
        return self._clock() - self._started

    @property
    def qps(self) -> float:
        elapsed = self.uptime_seconds
        if elapsed <= 0.0:
            return 0.0
        return self.completed / elapsed

    @property
    def mean_batch_occupancy(self) -> float:
        """Average requests served per engine-side micro-batch."""
        if self.batches == 0:
            return 0.0
        return self.batched_requests / self.batches

    def latency_percentile(self, q: float) -> float:
        with self._lock:
            return self._latencies.percentiles(q)[0]

    def histogram_snapshot(self) -> dict:
        """Plain-dict streaming-histogram states (request latency +
        per-phase) for the Prometheus adapter and wire shipping."""
        with self._lock:
            return {
                "latency": self._latency_hist.state(),
                "phases": {
                    name: hist.state()
                    for name, hist in self._phase_hists.items()
                },
            }

    def snapshot(self) -> Mapping[str, float]:
        """A JSON-ready summary (the ``{"op": "metrics"}`` response)."""
        with self._lock:
            p50, p95, p99 = self._latencies.percentiles(0.50, 0.95, 0.99)
            snapshot = {
                "uptime_seconds": round(self.uptime_seconds, 6),
                "requests": self.requests,
                "completed": self.completed,
                "errors": self.errors,
                "rejected": self.rejected,
                "shed": self.shed,
                "queue_depth": self.queue_depth,
                "queue_depth_peak": self.queue_depth_peak,
                "qps": round(self.qps, 3),
                "cache_hits": self.cache_hits,
                "cache_hit_rate": (
                    round(self.cache_hits / self.requests, 4)
                    if self.requests
                    else 0.0
                ),
                "deduplicated": self.deduplicated,
                "degraded": self.degraded,
                "batches": self.batches,
                "mean_batch_occupancy": round(self.mean_batch_occupancy, 3),
                "latency_p50": round(p50, 6),
                "latency_p95": round(p95, 6),
                "latency_p99": round(p99, 6),
                "stream_tuples": self.engine_stats.stream_tuples,
                "candidates": self.engine_stats.candidates,
                "resources": self.resources.snapshot(),
            }
            # Per-phase aggregates: total seconds, call count, and mean
            # seconds per call, so operators can see *where* latency
            # lives (drain vs search) and how batching amortizes it.
            for phase, spent in self.timer.totals.items():
                calls = self.timer.calls.get(phase, 0)
                snapshot[f"seconds_{phase}"] = round(spent, 6)
                snapshot[f"calls_{phase}"] = calls
                snapshot[f"mean_seconds_{phase}"] = (
                    round(spent / calls, 6) if calls else 0.0
                )
        return snapshot
