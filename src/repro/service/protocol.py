"""The wire protocol: decode -> dispatch -> encode, in one place.

Every transport — ``repro serve`` on stdin, ``repro batch`` and ``repro
explain`` over a file, the gateway's TCP lines and HTTP POST bodies —
hands raw lines to :func:`decode`, control objects to :func:`control`
and reply objects to :func:`encode`; windowing, ordering, tenants,
quotas and HTTP framing stay in the transport.

A line is UTF-8 JSON of at most :data:`MAX_LINE_BYTES`; blank lines and
``#`` comments are skipped. A search line is a request object (fields in
:mod:`repro.service.request`; a bare token array is shorthand for
``{"query": [...]}``). A control line is an object whose ``"op"`` is a
string::

    metrics      -> {"metrics": <snapshot>}
    prometheus   -> {"prometheus": "<text exposition>", "content_type": ...}
    stats        -> {"stats": <snapshot incl. p99 and per-phase
                    aggregates>, "backend": <pool or per-worker rollup>}
    slo          -> {"slo": <burn-rate snapshot>}
    explain      (plus the search fields) -> the search response with its
                    EXPLAIN report, as "explain": true on a search line
    invalidate   -> {"invalidated": <cache entries dropped>}
    flush        -> {"flushed": true}
    insert       "name", "tokens"
    delete       "name" or "set_id"
    replace      "name" or "set_id", "tokens"
                 -> {"op": ..., "set_id": n, "version": v}; these three
                    need a mutable collection (snapshot input or --wal)
                    and decode into one repro.store.mutation.Mutation;
                    a refused one changes nothing

Refusals, one shape each::

    {"id": "parse", "error": "bad request JSON: ..."}  undecodable: bad
                     JSON, invalid UTF-8, nesting too deep
    {"id": "parse", "error": "line exceeds N bytes"}
    {"id": ..., "error": ...}    a search that failed validation
                     (id "parse", or "line-N" in a batch) or execution
    {"error": ..., "op": ...}    a control op that failed or is unknown
    {"error": "search quota exhausted", "rejected": true,
     "retry_after_seconds": r, "id": ...}              gateway quota
                     (:class:`repro.gateway.quota.QuotaRejection`)
    {"id": ..., "error": ..., "rejected": true, "shed": true,
     "retry_after_seconds": r}       gateway admission (:func:`shed_reply`;
                     a mutation carries "op" in place of "id")
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ReproError
from repro.obs.adapters import service_to_registry
from repro.obs.prom import PromRegistry
from repro.service.request import SearchRequest, SearchResponse
from repro.store.mutation import OPS, Mutation

#: Longest line any transport accepts, terminator included: room for a
#: query of several hundred thousand tokens, small enough that one
#: client cannot make the server buffer without bound.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: The reply to a longer one.
OVERSIZE = SearchResponse.failure(
    "parse", f"line exceeds {MAX_LINE_BYTES} bytes"
)

#: What :func:`decode` made of a line.
BLANK, MALFORMED, OP, SEARCH = "blank", "malformed", "op", "search"


def decode(raw: str | bytes) -> tuple[str, Any]:
    """Classify one raw line as ``(kind, value)``; never raises.

    ``BLANK`` (value ``None``): nothing to answer. ``MALFORMED``: value
    is the ready failure reply. ``OP`` and ``SEARCH``: value is the
    request ``dict`` (array shorthand already expanded).
    """
    if len(raw) > MAX_LINE_BYTES:
        return MALFORMED, OVERSIZE
    try:
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        text = text.strip()
        if not text or text.startswith("#"):
            return BLANK, None
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; the
        # C scanner raises RecursionError on pathologically nested input.
        error = f"bad request JSON: {exc}"
    else:
        if isinstance(obj, list):
            obj = {"query": obj}
        if isinstance(obj, dict):
            return (OP if isinstance(obj.get("op"), str) else SEARCH), obj
        error = "request must be a JSON object or token array"
    return MALFORMED, SearchResponse.failure("parse", error)


def search_request(obj: dict) -> SearchRequest | SearchResponse:
    """The request a ``SEARCH`` object describes, or its failure reply."""
    try:
        return SearchRequest.from_obj(obj)
    except ReproError as exc:
        return SearchResponse.failure("parse", str(exc))


def explain_request(obj: dict) -> dict:
    """``obj`` as a search object that asks for its EXPLAIN report."""
    spec = dict(obj)
    spec["explain"] = True
    return spec


def encode(reply: dict | SearchResponse) -> str:
    """Any reply object as one compact JSON line (no terminator)."""
    if isinstance(reply, SearchResponse):
        reply = reply.to_obj()
    return json.dumps(reply, separators=(",", ":"))


def error_reply(message: str, **extra: Any) -> dict:
    return {"error": message, **extra}


def shed_reply(
    retry_after_seconds: float, *, request_id: str = "", op: str = ""
) -> dict:
    """An admitted search, or the mutation ``op``, dropped under load."""
    error = f"{'mutation' if op else 'request'} shed under load"
    reply = (
        {"error": error, "op": op} if op
        else {"id": request_id, "error": error}
    )
    reply.update(
        rejected=True,
        shed=True,
        retry_after_seconds=round(retry_after_seconds, 6),
    )
    return reply


def _prometheus(scheduler, obj: dict) -> dict:
    registry = scheduler.metrics.prom
    service_to_registry(registry, scheduler.metrics)
    return {
        "prometheus": registry.render(),
        "content_type": PromRegistry.CONTENT_TYPE,
    }


def _stats(scheduler, obj: dict) -> dict:
    payload: dict = {"stats": dict(scheduler.metrics.snapshot())}
    backend_stats = getattr(scheduler.pool, "stats_snapshot", None)
    if callable(backend_stats):
        payload["backend"] = backend_stats()
    return payload


def _explain(scheduler, obj: dict) -> dict:
    request = SearchRequest.from_obj(explain_request(obj))
    return scheduler.answer(request).to_obj()


def _flush(scheduler, obj: dict) -> dict:
    scheduler.flush()
    return {"flushed": True}


def _mutate(scheduler, obj: dict) -> dict:
    set_id = scheduler.mutate(Mutation.from_obj(obj))
    version = scheduler.pool.version
    return {
        "op": obj["op"],
        "set_id": set_id,
        "version": list(version) if isinstance(version, tuple) else version,
    }


#: Ops that change the collection (the gateway budgets them separately).
MUTATION_OPS = frozenset(OPS)

#: op name -> ``handler(scheduler, obj) -> reply``.
CONTROL_OPS = {
    "metrics": lambda s, obj: {"metrics": dict(s.metrics.snapshot())},
    "prometheus": _prometheus,
    "stats": _stats,
    "slo": lambda s, obj: {"slo": s.metrics.slo.snapshot()},
    "explain": _explain,
    "invalidate": lambda s, obj: {"invalidated": s.invalidate_cache()},
    "flush": _flush,
    **dict.fromkeys(MUTATION_OPS, _mutate),
}


def control(scheduler, obj: dict) -> dict:
    """One ``OP`` object -> one reply object.

    Total by construction: *every* failure — a user error
    (:class:`ReproError`), an unknown op, or an unexpected exception out
    of a backend hook — becomes a structured ``{"error": ..., "op":
    ...}`` reply. A long-lived server must never lose its serve loop to
    one bad control line.
    """
    op = obj["op"]
    handler = CONTROL_OPS.get(op)
    if handler is None:
        return error_reply(f"unknown op: {op}", op=op)
    try:
        return handler(scheduler, obj)
    except ReproError as exc:
        return error_reply(str(exc), op=op)
    except Exception as exc:  # noqa: BLE001 — the loop must survive
        return error_reply(
            f"internal error in op {op!r}: {type(exc).__name__}: {exc}",
            op=op,
        )
