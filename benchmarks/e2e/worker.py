"""One workload in one process: constructions, passes, metrics.

``run.py`` starts this module's :func:`run` in a fresh subprocess under
the BLAS and hash-seed pins. A timed run (``--trace 0``) records no span
anywhere and reports the end-to-end metrics; a traced run (``--trace
1``) spends its last pass on a construction that has spans around every
step and proxies in front of the pool, the WAL and the scheduler, and
reports the per-layer metrics from that pass only.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import corpus
import measure
from spans import Tracer, durations, self_times
from workloads import WORKLOADS, PassResult, Workload

MS, US = 1e3, 1e6


@dataclass
class Untraced:
    """What the untraced part of a run observed."""

    setups: list[float] = field(default_factory=list)
    results: list[PassResult] = field(default_factory=list)
    #: untraced ``measure_pass`` runs of a probing workload.
    twins: list[PassResult] = field(default_factory=list)
    rss_after_setup: dict = field(default_factory=dict)
    #: largest VmRSS growth over one pass (one connection, for a gateway).
    rss_growth_kb: int = 0


def untraced_phase(
    workload: Workload, passes: int, *, before_traced: bool
) -> Untraced:
    """``passes`` untraced passes and the cold constructions before
    them: one per pass for a mutating workload (so every pass starts
    from the same state), otherwise three, the last of which is kept
    for the passes — or one, when this is the untraced part of a traced
    run (which also wants the probing workload's untraced twins)."""
    off = Tracer(enabled=False)
    seen = Untraced()
    constructions = (
        passes if workload.rebuild_each_pass else 1 if before_traced else 3
    )
    for construction in range(constructions):
        gc.collect()
        started = time.perf_counter()
        workload.construct(off)
        seen.setups.append(time.perf_counter() - started)
        seen.rss_after_setup = measure.rss_kb()
        if workload.rebuild_each_pass:
            seen.results.append(workload.run_pass(off))
        elif construction == constructions - 1:
            workload.prefill(off)
            for _ in range(passes):
                gc.collect()
                before = measure.rss_kb()["VmRSS"]
                seen.results.append(workload.run_pass(off))
                seen.rss_growth_kb = max(
                    seen.rss_growth_kb, measure.rss_kb()["VmRSS"] - before
                )
            if before_traced and workload.probes:
                seen.twins = [workload.measure_pass(off) for _ in range(2)]
        workload.close()
    return seen


def timed_run(workload: Workload) -> dict:
    seen = untraced_phase(workload, workload.passes, before_traced=False)
    # The harness's copy of the corpus was dropped before construction
    # and is reloaded by the check, after the high-water mark is read.
    peak_rss = measure.peak_rss_mb()
    attempted, failed = workload.check(seen.results)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(seen.setups),
            "search_p50_ms": measure.search_p50_ms(
                [r.latency for r in seen.results]
            ),
            "search_qps": measure.search_qps(
                [r.busy for r in seen.results],
                workload.searches_per_pass,
                failed,
            ),
            "peak_rss_mb": peak_rss,
        },
    }


def traced_run(workload: Workload) -> dict:
    ticks_before = measure.cpu_ticks()
    calib_before = measure.calibration_seconds()
    seen = untraced_phase(workload, workload.passes - 1, before_traced=True)

    tracer = Tracer(enabled=True)
    gc.collect()
    workload.construct(tracer)
    workload.prefill(tracer)
    cache = workload.result_cache()
    lookups_before = (cache.hits, cache.misses) if cache else (0, 0)
    traced = workload.measure_pass(tracer)
    lookups_after = (cache.hits, cache.misses) if cache else (0, 0)
    codec = workload.codec_seconds() if workload.probes else ([], [])
    workload.close()
    calib_after = measure.calibration_seconds()
    ticks_after = measure.cpu_ticks()
    tracer.write(corpus.CACHE_DIR / "traces" / f"{workload.name}.trace.jsonl")

    results, twins = seen.results, seen.twins
    if not workload.probes:
        # The traced pass ran the same slots: one more replica to check,
        # and the untraced passes are what its overhead is taken against.
        twins, results = results, results + [traced]
    attempted, failed = workload.check(results)

    # Only spans of the traced pass's ops count; set-up and warm-up spans
    # carry other op ids.
    op_ids = {s["op_id"] for s in tracer.spans if s["name"] == "op"}
    ops = [s for s in tracer.spans if s["op_id"] in op_ids]
    setup = [s for s in tracer.spans if s["op_id"] not in op_ids]
    own = self_times(ops)
    stats = [st for op_id, st in tracer.stats if op_id in op_ids]

    def per_op(name: str) -> float:
        """Median over ops of the op's total seconds in ``name`` spans."""
        totals: dict[int, float] = {}
        for s in ops:
            if s["name"] == name:
                totals[s["op_id"]] = (
                    totals.get(s["op_id"], 0.0) + s["end"] - s["start"]
                )
        return measure.median(list(totals.values()))

    def typical(spans: list[dict], name: str) -> float:
        return measure.median(durations(spans, name))

    postprocessed = sum(st.postprocessed for st in stats)
    looked_up = sum(lookups_after) - sum(lookups_before)
    mutations = len(durations(ops, "service.mutate"))
    root_seconds = sum(durations(ops, "op"))
    metrics = {
        "index.drain_ms": per_op("index.drain") * MS,
        "index.stream_tuples": sum(st.stream_tuples for st in stats),
        "core.refinement_ms": per_op("core.refinement") * MS,
        "core.verification_ms": per_op("core.verification") * MS,
        "core.candidates": sum(st.candidates for st in stats),
        # the paper's "<5% of candidate sets need verification" ...
        "core.verified_share": (
            postprocessed / (len(stats) * workload.reload_corpus().num_sets)
            if stats else 0.0
        ),
        # ... and "more than half of those are pruned without matching".
        "core.no_em_share": (
            sum(st.no_em for st in stats) / postprocessed
            if postprocessed else 0.0
        ),
        "core.em_runs": sum(
            st.em_full + st.em_early_terminated for st in stats
        ),
        "core.verify_matmul_mflops": sum(
            st.verify_matmul_flops for st in stats
        ) / 1e6,
        "matching.hungarian_us": hungarian_seconds(workload, results) * US,
        "store.load_snapshot_ms": typical(setup, "store.load_snapshot") * MS,
        "store.overlay_ms": typical(setup, "store.overlay") * MS,
        "store.rss_anon_mb": seen.rss_after_setup["RssAnon"] / 1024.0,
        "store.rss_file_mb": seen.rss_after_setup["RssFile"] / 1024.0,
        "store.wal_append_us": typical(ops, "store.wal_append") * US,
        "store.wal_bytes_per_mutation": (
            workload.wal_bytes / mutations if mutations else 0.0
        ),
        "service.pool_build_ms": typical(setup, "service.pool_build") * MS,
        "service.pool_search_ms": per_op("service.pool_search") * MS,
        "service.scheduler_self_ms": (
            measure.median(own.get("service.answer", [])) * MS
        ),
        "service.hot_swap_ms": typical(ops, "service.hot_swap") * MS,
        "service.mutate_ack_us": typical(ops, "service.mutate") * US,
        "service.cache_hit_share": (
            (lookups_after[0] - lookups_before[0]) / looked_up
            if looked_up else 0.0
        ),
        "service.request_parse_us": measure.median(codec[0]) * US,
        "service.response_encode_us": measure.median(codec[1]) * US,
        "gateway.roundtrip_us": typical(ops, "gateway.roundtrip") * US,
        "gateway.self_us": (
            measure.median(own.get("gateway.roundtrip", [])) * US
        ),
        "gateway.request_p99_ms": (
            float(np.percentile(seen.results[-1].latency, 99)) * MS
            if workload.probes else 0.0
        ),
        "gateway.refused": workload.refused,
        "gateway.rss_growth_kb_per_1k": (
            1000.0 * seen.rss_growth_kb / workload.searches_per_pass
            if workload.probes else 0.0
        ),
        # Per slot against the slot's median untraced pass (one traced
        # observation against a minimum of many would read noise as
        # overhead), then the median over slots.
        "harness.trace_overhead_pct": 100.0 * float(np.median(
            traced.busy
            / np.median(np.stack([t.busy for t in twins]), axis=0)
            - 1.0
        )),
        "harness.unattributed_pct": 100.0 * sum(own["op"]) / root_seconds,
        "harness.calib_drift_pct": 100.0 * (calib_after / calib_before - 1.0),
        "harness.steal_pct": measure.steal_pct(ticks_before, ticks_after),
        "harness.corpus_build_s": workload.corpus_build_seconds,
        "harness.prefill_s": workload.prefill_seconds,
        "harness.attempted_ops": attempted,
        "harness.failed_ops": failed,
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def hungarian_seconds(workload: Workload, results: list[PassResult]) -> float:
    """Median seconds of ``hungarian_matching`` over the weight matrices
    of the workload's own (query, result set) pairs, best of three."""
    from repro.matching.graph import build_graph
    from repro.matching.hungarian import hungarian_matching

    pairs, sim, alpha = workload.matched_pairs(results)
    seconds = []
    for query, tokens in pairs:
        weights = build_graph(sorted(query), sorted(tokens), sim, alpha).weights
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            hungarian_matching(weights)
            best = min(best, time.perf_counter() - started)
        seconds.append(best)
    return measure.median(seconds)


def run(name: str, *, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    workload = WORKLOADS[name](smoke=smoke, seed=seed, seconds=seconds)
    workload.prepare()
    try:
        return traced_run(workload) if trace else timed_run(workload)
    finally:
        workload.cleanup()
