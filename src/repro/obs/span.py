"""Spans, the tracer, and the process-global tracing switch.

A *span* is one timed, named region of a request: ``gateway.request``
at the root, ``scheduler.search`` under it, ``engine.search`` per
shard, ``phase.refinement``/``phase.postprocessing`` inside the
engine, ``worker.search`` across the cluster wire.  Spans carry a
``trace_id`` shared by the whole request and a ``parent_id`` linking
them into a tree the inspector can reconstruct.

Propagation rules:

* Within a thread, the current span lives in a :data:`contextvars`
  variable — nested ``tracer.span(...)`` calls parent automatically.
* Across thread pools (scheduler workers, ``EnginePool`` shard
  executors) context does NOT flow; callers capture
  :func:`current_context` (or hold the request's span) and pass it as
  ``parent=`` explicitly.
* Across processes (cluster workers) the context crosses the wire as
  a plain ``{"trace_id", "span_id"}`` dict — see
  :meth:`SpanContext.to_wire` / :meth:`SpanContext.from_wire` — and
  the worker's tracer is configured from the shipped
  :func:`trace_config` so both sides append to the same sink.

Tracing is off by default and costs one ``None`` check per hook when
disabled.  Results are never affected: spans observe, they do not
participate.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.obs.sink import TraceSink
from repro.utils.timer import MONOTONIC, Stopwatch


def new_trace_id() -> str:
    """A fresh 128-bit hex trace id."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit hex span id."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """An addressable point in a trace: ``trace_id`` plus the span to
    parent under.  ``span_id=None`` means "join this trace at the
    root" — used when a client supplies a ``trace_id`` but no span of
    its own exists on our side of the wire."""

    trace_id: str
    span_id: str | None = None

    def to_wire(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_wire(cls, obj: Mapping[str, Any] | None) -> "SpanContext | None":
        if not obj:
            return None
        trace_id = obj.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = obj.get("span_id")
        if span_id is not None and not isinstance(span_id, str):
            span_id = None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """A live span.  ``annotate(**tags)`` attaches key/value tags that
    land on the emitted record; everything else is bookkeeping."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "tags",
        "error", "_watch", "_ts",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        clock: Callable[[], float],
        wall: Callable[[], float],
        tags: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.tags: dict[str, Any] = dict(tags) if tags else {}
        self.error: str | None = None
        self._watch = Stopwatch(clock)
        self._ts = wall()

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def annotate(self, **tags: Any) -> None:
        self.tags.update(tags)

    def to_record(self, seconds: float) -> dict[str, Any]:
        record: dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "ts": round(self._ts, 6),
            "duration_ms": round(seconds * 1000.0, 4),
        }
        if self.tags:
            record["tags"] = self.tags
        if self.error is not None:
            record["error"] = self.error
        return record


class _NoopSpan:
    """Stand-in yielded when tracing is disabled: every hook method is
    a no-op so call sites never branch on tracer state themselves."""

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    error = None
    tags: dict[str, Any] = {}

    @property
    def context(self) -> None:
        return None

    def annotate(self, **tags: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: The current thread-of-control's live span.  Does not cross thread
#: pools or processes — see the module docstring for the rules.
_ACTIVE: ContextVar[Span | None] = ContextVar("repro_obs_active", default=None)


def current_context() -> SpanContext | None:
    """The active span's context, or None outside any span (or with
    tracing disabled)."""
    span = _ACTIVE.get()
    return span.context if span is not None else None


def _resolve_parent(
    parent: "Span | SpanContext | None",
) -> tuple[str | None, str | None]:
    """``(trace_id, parent_id)`` from an explicit parent or the
    contextvar; ``(None, None)`` means "start a new trace"."""
    if parent is None:
        parent = _ACTIVE.get()
    if parent is None:
        return None, None
    if isinstance(parent, SpanContext):
        return parent.trace_id, parent.span_id
    return parent.trace_id, parent.span_id


class Tracer:
    """Opens spans and emits their records to a :class:`TraceSink`.

    ``clock`` (monotonic, durations) and ``wall`` (epoch, ordering
    across processes) are injectable for tests.
    """

    def __init__(
        self,
        sink: TraceSink,
        *,
        clock: Callable[[], float] = MONOTONIC,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self._sink = sink
        self._clock = clock
        self._wall = wall

    @property
    def enabled(self) -> bool:
        return True

    @property
    def sink(self) -> TraceSink:
        return self._sink

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: "Span | SpanContext | None" = None,
        trace_id: str | None = None,
        tags: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        """Open a span around a block.

        Parent resolution: explicit ``parent`` arg, else the
        contextvar's active span, else a new trace is started (with
        ``trace_id`` if given, so gateway clients can supply one).
        Exceptions are recorded on the span and re-raised.
        """
        ptrace, pspan = _resolve_parent(parent)
        if ptrace is None:
            ptrace = trace_id or new_trace_id()
        span = Span(name, ptrace, pspan, self._clock, self._wall, tags)
        token = _ACTIVE.set(span)
        try:
            yield span
        except BaseException as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            _ACTIVE.reset(token)
            self._emit(span, span._watch.stop())

    def record(
        self,
        name: str,
        seconds: float,
        *,
        parent: "Span | SpanContext | None" = None,
        trace_id: str | None = None,
        tags: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Emit a retroactive span for an interval measured elsewhere
        (e.g. the admission queue wait, timed by a stopwatch that was
        started before the job's span could exist)."""
        ptrace, pspan = _resolve_parent(parent)
        if ptrace is None:
            ptrace = trace_id or new_trace_id()
        span = Span(name, ptrace, pspan, self._clock, self._wall, tags)
        # The interval ended now; backdate the wall start.
        span._ts = self._wall() - seconds
        span.error = error
        self._emit(span, seconds)

    def _emit(self, span: Span, seconds: float) -> None:
        self._sink.offer(
            span.to_record(seconds),
            is_root=span.parent_id is None,
            is_error=span.error is not None,
            seconds=seconds,
        )

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()


class _DisabledTracer:
    """The default tracer: every operation is free and span-less."""

    enabled = False
    sink = None

    @contextmanager
    def span(self, name: str, **_: Any) -> Iterator[_NoopSpan]:
        yield NOOP_SPAN

    def record(self, *args: Any, **kwargs: Any) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


_DISABLED = _DisabledTracer()
_GLOBAL: Tracer | _DisabledTracer = _DISABLED
_GLOBAL_CONFIG: dict[str, Any] | None = None


def get_tracer() -> Tracer | _DisabledTracer:
    """The process-global tracer (disabled unless :func:`configure`
    ran)."""
    return _GLOBAL


def configure(
    path: str,
    *,
    sample_rate: float = 1.0,
    slow_threshold_ms: float | None = None,
    max_bytes: int = 8 * 1024 * 1024,
    slowest_n: int = 32,
) -> Tracer:
    """Enable tracing process-wide, appending to ``path``.

    Returns the tracer; call :func:`disable` to turn tracing back off
    (tests do this in ``finally`` blocks).  Reconfiguring closes the
    previous sink first.
    """
    global _GLOBAL, _GLOBAL_CONFIG
    if isinstance(_GLOBAL, Tracer):
        _GLOBAL.close()
    sink = TraceSink(
        path,
        max_bytes=max_bytes,
        sample_rate=sample_rate,
        slow_threshold_ms=slow_threshold_ms,
        slowest_n=slowest_n,
    )
    _GLOBAL = Tracer(sink)
    _GLOBAL_CONFIG = {
        "path": os.path.abspath(path),
        "sample_rate": sample_rate,
        "slow_threshold_ms": slow_threshold_ms,
        "max_bytes": max_bytes,
        "slowest_n": slowest_n,
    }
    return _GLOBAL


def configure_from(config: Mapping[str, Any] | None) -> None:
    """Configure from a :func:`trace_config` dict shipped over the
    cluster wire (no-op on None) — workers call this at bootstrap."""
    if not config:
        return
    configure(
        config["path"],
        sample_rate=float(config.get("sample_rate", 1.0)),
        slow_threshold_ms=config.get("slow_threshold_ms"),
        max_bytes=int(config.get("max_bytes", 8 * 1024 * 1024)),
        slowest_n=int(config.get("slowest_n", 32)),
    )


def disable() -> None:
    """Turn tracing off and close the sink."""
    global _GLOBAL, _GLOBAL_CONFIG
    if isinstance(_GLOBAL, Tracer):
        _GLOBAL.close()
    _GLOBAL = _DISABLED
    _GLOBAL_CONFIG = None


def trace_config() -> dict[str, Any] | None:
    """The plain-dict form of the global configuration, suitable for
    shipping to spawned cluster workers; None when disabled."""
    return dict(_GLOBAL_CONFIG) if _GLOBAL_CONFIG else None


def annotate(**tags: Any) -> None:
    """Tag the current span, wherever we are — a no-op outside any
    span or with tracing disabled.  Engine internals (fastpath,
    verification, postprocessing) use this so they never need a
    tracer reference."""
    span = _ACTIVE.get()
    if span is not None:
        span.annotate(**tags)


@contextmanager
def traced_phase(timer: Any, name: str) -> Iterator[None]:
    """``with timer.phase(name)`` plus a ``phase.<name>`` span.

    Drop-in replacement for the ``PhaseTimer.phase`` blocks in the
    engine: the timer accounting is identical (same clock, same
    accumulation), and the span is only opened when tracing is on AND
    a request span is active — batch experiments pay one ``None``
    check.
    """
    tracer = _GLOBAL
    if tracer.enabled and _ACTIVE.get() is not None:
        with tracer.span(f"phase.{name}"):
            with timer.phase(name):
                yield
    else:
        with timer.phase(name):
            yield
