"""JSON-lines front-ends: the ``repro serve`` loop and ``repro batch``.

Both speak the wire protocol of :mod:`repro.service.protocol` (line
format, op table, refusal shapes); this module adds only what a stream
transport needs.

``serve_lines`` reads lines from any stream (the CLI wires
stdin/stdout) and answers them in arrival order. Searches accumulate
into micro-batches of up to ``linger`` requests before the scheduler
flushes, so piping a burst of queries in costs a fraction of the index
drains that one-at-a-time serving would. A control op is applied after
the pending response window drains, so earlier requests see the old
state and later ones the new version.

``run_batch`` is the offline variant: parse a whole request file, submit
everything (maximal batching/dedup/caching), and emit one response line
per request in input order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator, TextIO

from repro.errors import ReproError
from repro.service import protocol
from repro.service.request import SearchRequest, SearchResponse
from repro.service.scheduler import QueryScheduler, Ticket


class GracefulShutdown(Exception):
    """Raised (typically from a SIGINT/SIGTERM handler) to stop the
    serve loop cleanly: pending responses are drained and emitted, then
    :func:`serve_lines` returns normally instead of unwinding with a
    traceback."""


def parse_request_lines(
    lines: Iterable[str | bytes],
) -> Iterator[SearchRequest | SearchResponse]:
    """Parse request lines, yielding a failure response (labelled
    ``line-N``) for bad ones.

    Blank lines and ``#`` comments are skipped so hand-written query
    files stay pleasant.
    """
    for number, line in enumerate(lines, start=1):
        kind, value = protocol.decode(line)
        if kind is protocol.BLANK:
            continue
        if kind is not protocol.MALFORMED:
            value = protocol.search_request(value)
        if isinstance(value, SearchResponse):
            value = replace(value, request_id=f"line-{number}")
        yield value


def run_batch(
    scheduler: QueryScheduler, lines: Iterable[str | bytes]
) -> list[SearchResponse]:
    """Answer a whole request file; responses in input order."""
    tickets: list[Ticket | SearchResponse] = []
    for item in parse_request_lines(lines):
        if isinstance(item, SearchRequest):
            try:
                tickets.append(scheduler.submit(item))
            except ReproError as exc:
                tickets.append(
                    SearchResponse.failure(item.request_id, str(exc))
                )
        else:
            tickets.append(item)
    scheduler.flush()
    return [
        item.result() if isinstance(item, Ticket) else item
        for item in tickets
    ]


def serve_lines(
    scheduler: QueryScheduler,
    in_stream: Iterable[str | bytes],
    out_stream: TextIO,
    *,
    linger: int = 1,
) -> int:
    """The request loop behind ``repro serve``.

    ``linger`` is how many requests may accumulate before the scheduler
    is flushed; with stdin pipes the loop cannot see "no more input yet",
    so linger>1 trades a little per-request latency for batched drains
    on bursty input. Returns the number of requests served.

    A :class:`GracefulShutdown` or ``KeyboardInterrupt`` raised while
    the loop is blocked on input (the signal-handler path of
    ``repro serve``) drains and emits every pending response before
    returning — in-flight work is never dropped on shutdown.
    """
    served = 0
    window: list[Ticket] = []
    shutting_down = False

    def emit_window() -> None:
        # Resumable on purpose: each ticket leaves the window only
        # after its response is written, and a shutdown signal landing
        # in the blocking wait (where virtually all drain time is
        # spent) finishes the drain and retries the same ticket — so an
        # interrupted drain neither drops nor re-emits responses. The
        # absorbed signal is re-raised once the drain is complete, so
        # the loop shuts down instead of blocking on the next read. A
        # signal in the few bytecodes between write and pop can at
        # worst duplicate one already-written line on retry; dropping
        # is never possible.
        nonlocal served, shutting_down
        if not window:
            return
        while window:
            try:
                # flush() inside the resumable region: a signal landing
                # mid-dispatch re-queues undispatched batches, and the
                # retry here re-flushes them — otherwise their futures
                # would never complete and result() below would hang.
                scheduler.flush()
                text = protocol.encode(window[0].result())
            except (GracefulShutdown, KeyboardInterrupt):
                shutting_down = True
                continue  # retry the same ticket; nothing was emitted
            out_stream.write(text + "\n")
            served += 1
            window.pop(0)
        out_stream.flush()
        if shutting_down:
            shutting_down = False  # drained: deliver the signal once
            raise GracefulShutdown()

    def emit_immediate(reply: dict | SearchResponse) -> None:
        emit_window()  # keep responses in arrival order
        out_stream.write(protocol.encode(reply) + "\n")
        out_stream.flush()

    try:
        for line in in_stream:
            kind, value = protocol.decode(line)
            if kind is protocol.BLANK:
                continue
            if kind is protocol.MALFORMED:
                emit_immediate(value)
                continue
            if kind is protocol.OP:
                # Drain pending responses BEFORE evaluating the op:
                # earlier requests must observe the pre-mutation state
                # (and their cache entries must be keyed by the version
                # they ran at).
                emit_window()
                emit_immediate(protocol.control(scheduler, value))
                continue
            request = protocol.search_request(value)
            if isinstance(request, SearchResponse):
                emit_immediate(request)
                continue
            try:
                ticket = scheduler.submit(request)
            except ReproError as exc:
                # Admission itself can refuse a request (e.g. an alpha
                # below what the token index serves exactly). That is a
                # per-request error line, not a dead serve loop.
                emit_immediate(
                    SearchResponse.failure(request.request_id, str(exc))
                )
                continue
            window.append(ticket)
            if len(window) >= max(1, linger):
                emit_window()
    except (GracefulShutdown, KeyboardInterrupt):
        pass  # drain below: accepted requests still get their responses
    try:
        emit_window()
    except (GracefulShutdown, KeyboardInterrupt):
        # The signal landed during the final drain itself; emit_window
        # is resumable, so one retry finishes the remaining responses
        # (the CLI handler ignores further signals after the first).
        emit_window()
    return served
