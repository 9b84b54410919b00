"""Harness-side spans: timed from outside the program, kept in memory.

A span is ``{id, name, start, end, parent, op_id}``. Spans come from
``with tracer.span(name)`` blocks around calls into public functions and
from the proxies below, which the harness hands to the program's public
constructors in place of the object they wrap — nothing under ``src/``
is edited. Every workload keeps at most one operation in flight, so the
open-span stack is a plain list even though the scheduler and gateway
call the proxies from their own threads.

A layer's self time is its span's duration minus the part its children
cover; :func:`self_times` computes that per span name.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder. ``enabled=False`` makes ``span`` a no-op, so the
    same workload code runs traced and untraced."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        #: ``(op_id, SearchStats)`` of every search a proxy forwarded.
        self.stats: list[tuple] = []
        self._stack: list[dict] = []
        self._op_id = -1

    def _open(self, name: str, start: float, end: float | None) -> dict:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op_id": self._op_id,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, *, root: bool = False):
        if not self.enabled:
            yield None
            return
        if root:
            self._op_id += 1
        record = self._open(name, time.perf_counter(), None)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.remove(record)

    def add_phases(self, start: float, stats) -> None:
        """``core.refinement`` then ``core.verification`` laid end to end
        from ``start``, from the program's own phase timers."""
        from repro.core.stats import POSTPROCESSING, REFINEMENT

        if not self.enabled:
            return
        self.stats.append((self._op_id, stats))
        refinement = stats.timer.seconds(REFINEMENT)
        verification = stats.timer.seconds(POSTPROCESSING)
        self._open("core.refinement", start, start + refinement)
        self._open(
            "core.verification",
            start + refinement,
            start + refinement + verification,
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
        os.replace(tmp, path)


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Per span name, each span's duration minus its children's."""
    child_seconds: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_seconds[span["parent"]] += span["end"] - span["start"]
    out: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        own = span["end"] - span["start"] - child_seconds[span["id"]]
        out[span["name"]].append(own)
    return out


class BackendProxy:
    """A ``SearchBackend`` that forwards to the real pool, splitting each
    search into its drain and its search and recording mutations."""

    def __init__(self, pool, tracer: Tracer) -> None:
        self._pool = pool
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def drain(self, query, *, alpha=None):
        with self._tracer.span("index.drain"):
            return self._pool.drain(query, alpha=alpha)

    def search(self, query, k=10, *, alpha=None, stream=None, time_budget=None):
        if stream is None:
            stream = self.drain(query, alpha=alpha)
        with self._tracer.span("service.pool_search") as span:
            result = self._pool.search(
                query, k, alpha=alpha, stream=stream, time_budget=time_budget
            )
            if span is not None:
                self._tracer.add_phases(span["start"], result.stats)
        return result

    def insert(self, tokens, *, name=None):
        with self._tracer.span("service.pool_mutate"):
            return self._pool.insert(tokens, name=name)

    def delete(self, ref):
        with self._tracer.span("service.pool_mutate"):
            return self._pool.delete(ref)

    def replace(self, ref, tokens):
        with self._tracer.span("service.pool_mutate"):
            return self._pool.replace(ref, tokens)


class WalProxy:
    """A write-ahead log that records a span around every append."""

    def __init__(self, wal, tracer: Tracer) -> None:
        self._wal = wal
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._wal, name)

    def append(self, op, name, tokens=None):
        with self._tracer.span("store.wal_append"):
            return self._wal.append(op, name, tokens)


class SchedulerProxy:
    """A scheduler that records a span around every ``answer`` (the
    gateway calls it from an executor thread)."""

    def __init__(self, scheduler, tracer: Tracer) -> None:
        self._scheduler = scheduler
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._scheduler, name)

    def answer(self, request):
        with self._tracer.span("service.answer"):
            return self._scheduler.answer(request)
