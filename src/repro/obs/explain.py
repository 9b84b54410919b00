"""Query EXPLAIN: the pruning funnel as a structured, per-request report.

The paper's evaluation *is* a funnel — candidates partitioned exactly
into first-sight prunes (Lemma 2), bucket prunes (Lemma 6), No-EM
resolutions (Lemmas 7/8's cheap exits), early-terminated and full
Hungarian runs. Every serving layer already counts it
(:class:`~repro.core.stats.SearchStats`); EXPLAIN turns those counters
into a per-request justification: *why* was this query slow, which
filter did the work, which partition carried the load, did the columnar
engine or its drift-guard fallback verify the survivors.

:func:`build_explain` produces the wire payload attached to a response
when a request carries ``explain: true`` (or arrives as the
``{"op": "explain"}`` control line); :func:`render_explain` renders it
as the table ``repro explain`` prints.

Invariant enforcement rides along: the merged stats and every partition
are :meth:`~repro.core.stats.SearchStats.validate`-checked, and the
merged funnel is compared counter-by-counter against the sum of the
per-partition funnels (bitwise — these are ints). Violations are
reported in the payload in production and **raised** under pytest
(:class:`~repro.errors.StatsInvariantError`), so a cluster stat-merge
bug fails tests instead of silently skewing dashboards.
"""

from __future__ import annotations

import os
from typing import Any, Sequence

from repro.core.stats import SearchStats
from repro.errors import StatsInvariantError

#: Funnel rows in render order; every key appears in ``funnel()`` dicts.
FUNNEL_ROWS = (
    "candidates",
    "pruned_first_sight",
    "pruned_bucket",
    "no_em_accepted",
    "no_em_discarded",
    "em_early_terminated",
    "em_full",
)


def _strict_default() -> bool:
    """Raise on violations only under pytest (the satellite contract:
    production reports, tests fail loudly)."""
    return bool(os.environ.get("PYTEST_CURRENT_TEST"))


def build_explain(
    *,
    stats: SearchStats | None,
    partition_stats: Sequence[SearchStats] = (),
    request_id: str = "",
    trace_id: str | None = None,
    k: int = 0,
    alpha: float | None = None,
    seconds: float = 0.0,
    cached: bool = False,
    deduplicated: bool = False,
    timed_out: bool = False,
    engine: dict | None = None,
    strict: bool | None = None,
) -> dict:
    """Build one request's EXPLAIN payload.

    ``stats`` is the merged :class:`SearchStats` of the search that
    produced the response; ``partition_stats`` the per-partition
    partials (one per engine shard, or one per shard per cluster
    worker). For a cache hit both describe the computation that
    *seeded* the cache entry — the scores returned are those floats, so
    the funnel that produced them is the honest explanation — and the
    ``cache`` block says so.

    ``strict=None`` auto-raises under pytest; pass ``False`` to force
    report-only (used by tests *about* violation reporting).
    """
    report: dict[str, Any] = {
        "request_id": request_id,
        "k": k,
        "alpha": alpha,
        "seconds": round(seconds, 6),
        "cache": {"hit": cached, "deduplicated": deduplicated},
        "engine": dict(engine or {}),
    }
    if trace_id:
        report["trace_id"] = trace_id
    if timed_out:
        report["timed_out"] = True
    if stats is None:
        # A cache entry that predates stats-carrying payloads, or an
        # error path: the report degrades to attribution-only.
        report["funnel"] = None
        report["partitions"] = []
        report["violations"] = ["no stats available for this response"]
        return report

    violations = list(stats.validate())
    funnel = stats.funnel()
    funnel["postprocessed"] = stats.postprocessed
    partitions = [p.funnel() for p in partition_stats]
    for index, partial in enumerate(partition_stats):
        for problem in partial.validate():
            violations.append(f"partition {index}: {problem}")
    # The merged funnel must equal the per-partition sums bitwise —
    # the acceptance check that cluster/shard stat accumulation neither
    # drops nor double-counts a partial.
    partitions_consistent = True
    if partitions:
        for key in FUNNEL_ROWS:
            merged = funnel[key]
            summed = sum(p[key] for p in partitions)
            if merged != summed:
                partitions_consistent = False
                violations.append(
                    f"merged {key}={merged} != sum over "
                    f"{len(partitions)} partitions ({summed})"
                )
    report["funnel"] = funnel
    report["partitions"] = partitions
    report["partitions_consistent"] = partitions_consistent
    report["phases"] = {
        name: round(spent, 6)
        for name, spent in sorted(stats.timer.totals.items())
    }
    report["cpu_seconds"] = round(stats.timer.total, 6)
    report["stream"] = {
        "stream_tuples": stats.stream_tuples,
        "final_stream_similarity": round(stats.final_stream_similarity, 6),
    }
    report["verify"] = {
        "matmul_cells": stats.verify_matmul_cells,
        "matmul_flops": stats.verify_matmul_flops,
        "bytes_scanned": stats.verify_bytes_scanned,
        "fallbacks": stats.verify_fallbacks,
    }
    report["em"] = {
        "initial_pruned": stats.em_initial_pruned,
        "label_updates": stats.em_label_updates,
        "resolution_em": stats.resolution_em,
    }
    report["memory_bytes"] = stats.memory.total_bytes
    report["violations"] = violations
    if violations and (_strict_default() if strict is None else strict):
        raise StatsInvariantError(
            "search stats violate their invariants: "
            + "; ".join(violations)
        )
    return report


def render_explain(report: dict) -> str:
    """The ``repro explain`` table: header, funnel (merged plus one
    column per partition), phase timings, cost, violations."""
    lines: list[str] = []
    alpha = report.get("alpha")
    header = (
        f"request {report.get('request_id') or '-'}"
        f"  k={report.get('k')}"
        f"  alpha={'-' if alpha is None else alpha}"
        f"  seconds={report.get('seconds')}"
    )
    engine = report.get("engine") or {}
    if engine:
        header += "  backend=" + (engine.get("backend") or "?")
    cache = report.get("cache") or {}
    if cache.get("hit"):
        header += "  [cache hit]"
    if cache.get("deduplicated"):
        header += "  [deduplicated]"
    if report.get("timed_out"):
        header += "  [timed out]"
    lines.append(header)
    if report.get("trace_id"):
        lines.append(f"trace {report['trace_id']}  (repro trace show)")

    funnel = report.get("funnel")
    if funnel is None:
        lines.append("(no stats available)")
    else:
        partitions = report.get("partitions") or []
        columns = ["merged"] + [f"p{i}" for i in range(len(partitions))]
        width = max(22, *(len(c) for c in columns)) if columns else 22
        lines.append("")
        lines.append(
            f"{'funnel':<24}" + "".join(f"{c:>{width - 12}}" for c in columns)
        )
        for key in FUNNEL_ROWS:
            row = f"{key:<24}" + f"{funnel[key]:>{width - 12}}"
            for partial in partitions:
                row += f"{partial[key]:>{width - 12}}"
            lines.append(row)
        lines.append("")
        phases = report.get("phases") or {}
        if phases:
            lines.append(f"{'phase':<24}{'seconds':>10}")
            for name, spent in phases.items():
                lines.append(f"{name:<24}{spent:>10.4f}")
            lines.append("")
        verify = report.get("verify") or {}
        if verify:
            lines.append(
                "verify: "
                f"{verify.get('matmul_cells', 0)} cells, "
                f"{verify.get('matmul_flops', 0)} flops, "
                f"{verify.get('bytes_scanned', 0)} bytes scanned, "
                f"{verify.get('fallbacks', 0)} fallbacks"
            )
        em = report.get("em") or {}
        if em:
            lines.append(
                f"em: {em.get('initial_pruned', 0)} of "
                f"{funnel['em_early_terminated']} early terminations on "
                f"the initial labeling, "
                f"{em.get('label_updates', 0)} label updates, "
                f"{em.get('resolution_em', 0)} resolutions"
            )
        stream = report.get("stream") or {}
        if stream:
            lines.append(
                f"stream: {stream.get('stream_tuples', 0)} tuples, "
                f"final similarity "
                f"{stream.get('final_stream_similarity', 0.0)}"
            )
    for problem in report.get("violations") or ():
        lines.append(f"VIOLATION: {problem}")
    return "\n".join(lines)
