"""The trace inspector: read the sink back, rebuild span trees.

Backs ``repro trace tail|show|top``.  Everything here is offline and
read-only — the sink file (plus its single ``.1`` rotation backup) is
the only input, and unparseable lines are skipped rather than fatal
(a rotation or a crash may leave one torn line; POSIX append atomicity
makes more than that unlikely).
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Iterator

from repro.obs.histogram import Reservoir

Span = dict[str, Any]

#: Duration samples retained per aggregation row in ``top_spans`` —
#: exact percentiles up to this many calls per span name, an unbiased
#: reservoir estimate beyond.
TOP_SAMPLE_WINDOW = 4096


def read_spans(path: str) -> list[Span]:
    """Every span record in the sink, oldest file first."""
    spans: list[Span] = []
    for candidate in (path + ".1", path):
        if not os.path.exists(candidate):
            continue
        with open(candidate, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and "trace_id" in record:
                    spans.append(record)
    return spans


def group_by_trace(spans: Iterable[Span]) -> dict[str, list[Span]]:
    """``trace_id -> spans``, preserving file order within a trace."""
    traces: dict[str, list[Span]] = {}
    for span in spans:
        traces.setdefault(span["trace_id"], []).append(span)
    return traces


def trace_order(traces: dict[str, list[Span]]) -> list[str]:
    """Trace ids ordered by the earliest wall timestamp they contain."""
    return sorted(
        traces, key=lambda tid: min(s.get("ts", 0.0) for s in traces[tid])
    )


def _children_index(spans: list[Span]) -> dict[str | None, list[Span]]:
    by_parent: dict[str | None, list[Span]] = {}
    ids = {span.get("span_id") for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        # An orphan (its parent was sampled away or lives in another
        # process's pending buffer) renders as a root rather than
        # vanishing.
        if parent is not None and parent not in ids:
            parent = None
        by_parent.setdefault(parent, []).append(span)
    for bucket in by_parent.values():
        bucket.sort(key=lambda s: (s.get("ts", 0.0), s.get("span_id", "")))
    return by_parent


def format_trace(spans: list[Span]) -> str:
    """One trace as an indented tree with per-span durations."""
    if not spans:
        return "(empty trace)"
    by_parent = _children_index(spans)
    trace_id = spans[0].get("trace_id", "?")
    lines = [f"trace {trace_id} — {len(spans)} span(s)"]

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        duration = span.get("duration_ms", 0.0)
        line = f"{indent}{span.get('name', '?')}  {duration:.3f}ms"
        tags = span.get("tags")
        if tags:
            rendered = " ".join(
                f"{key}={value}" for key, value in sorted(tags.items())
            )
            line += f"  [{rendered}]"
        if span.get("error"):
            line += f"  !! {span['error']}"
        lines.append(line)
        for child in by_parent.get(span.get("span_id"), ()):
            walk(child, depth + 1)

    for root in by_parent.get(None, ()):
        walk(root, 1)
    return "\n".join(lines)


def tail_traces(path: str, count: int) -> Iterator[str]:
    """The formatted trees of the ``count`` most recent traces."""
    traces = group_by_trace(read_spans(path))
    for trace_id in trace_order(traces)[-count:]:
        yield format_trace(traces[trace_id])


def show_trace(path: str, trace_id: str) -> str | None:
    """The formatted tree for one trace id (prefix match allowed when
    unambiguous), or None if absent."""
    traces = group_by_trace(read_spans(path))
    if trace_id in traces:
        return format_trace(traces[trace_id])
    matches = [tid for tid in traces if tid.startswith(trace_id)]
    if len(matches) == 1:
        return format_trace(traces[matches[0]])
    return None


def top_spans(
    path: str, *, by: str = "name", limit: int = 20
) -> list[dict[str, Any]]:
    """Aggregate span durations: where did the milliseconds go?

    ``by="name"`` groups over every span name; ``by="phase"``
    restricts to engine phase spans (``phase.*``) and strips the
    prefix.  Rows come back sorted by total time, descending.
    """
    if by not in ("name", "phase"):
        raise ValueError(f"top --by must be 'name' or 'phase', got {by!r}")
    rows: dict[str, dict[str, Any]] = {}
    for span in read_spans(path):
        name = span.get("name", "?")
        if by == "phase":
            if not name.startswith("phase."):
                continue
            name = name[len("phase."):]
        duration = float(span.get("duration_ms", 0.0))
        row = rows.get(name)
        if row is None:
            row = rows[name] = {
                "name": name, "calls": 0, "total_ms": 0.0,
                "max_ms": 0.0, "errors": 0,
                "_durations": Reservoir(TOP_SAMPLE_WINDOW),
            }
        row["calls"] += 1
        row["total_ms"] += duration
        row["max_ms"] = max(row["max_ms"], duration)
        row["_durations"].observe(duration)
        if span.get("error"):
            row["errors"] += 1
    ordered = sorted(
        rows.values(), key=lambda r: r["total_ms"], reverse=True
    )[:limit]
    for row in ordered:
        durations = row.pop("_durations")
        row["total_ms"] = round(row["total_ms"], 3)
        row["max_ms"] = round(row["max_ms"], 3)
        row["mean_ms"] = round(row["total_ms"] / row["calls"], 3)
        p50, p95, p99 = durations.percentiles(0.50, 0.95, 0.99)
        row["p50_ms"] = round(p50, 3)
        row["p95_ms"] = round(p95, 3)
        row["p99_ms"] = round(p99, 3)
    return ordered


def format_top(rows: list[dict[str, Any]]) -> str:
    """``top_spans`` rows as an aligned table."""
    if not rows:
        return "(no spans)"
    header = (
        f"{'span':<28}{'calls':>7}{'total_ms':>12}"
        f"{'p50_ms':>10}{'p95_ms':>10}{'p99_ms':>10}"
        f"{'max_ms':>10}{'errors':>8}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['name']:<28}{row['calls']:>7}{row['total_ms']:>12.3f}"
            f"{row['p50_ms']:>10.3f}{row['p95_ms']:>10.3f}"
            f"{row['p99_ms']:>10.3f}{row['max_ms']:>10.3f}"
            f"{row['errors']:>8}"
        )
    return "\n".join(lines)
