"""Wire types of the query service.

A :class:`SearchRequest` is one top-k search as it arrives over the wire
(JSON-lines on ``repro serve``'s stdin, one JSON object per line in a
``repro batch`` input file). A :class:`SearchResponse` is what goes back:
the ranked hits plus serving metadata (cache hit, dedup, latency).

The wire format is deliberately small::

    {"id": "q1", "query": ["LA", "NYC"], "k": 5, "alpha": 0.8}
    {"id": "q1", "results": [{"set_id": 3, "name": "cities",
      "score": 1.73, "exact": true}], "cached": false, "seconds": 0.01}

Lines become request objects, and responses lines, in
:mod:`repro.service.protocol`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.core.koios import SearchResult, check_k
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.obs import SpanContext

_auto_ids = itertools.count(1)


def _auto_request_id() -> str:
    return f"req-{next(_auto_ids)}"


@dataclass(frozen=True)
class SearchRequest:
    """One top-k search request.

    ``alpha=None`` means "use the service default". ``request_id`` is
    echoed back on the response so callers can correlate out-of-order
    completions; one is generated when the wire omits it.

    ``trace`` carries the request's tracing context (the gateway's root
    span, or a client-supplied ``trace_id`` on the wire) down into the
    scheduler; it never participates in equality, hashing, or results.

    ``explain`` asks for the EXPLAIN payload on the response (the
    pruning funnel, per-partition, with phase timings and cost
    attribution). Excluded from equality like ``trace``: an explained
    request still caches, dedups, and batches with its plain twin — the
    report is built from the stats the computation produced either way.
    """

    query: frozenset[str]
    k: int = 10
    alpha: float | None = None
    request_id: str = field(default_factory=_auto_request_id)
    trace: Any = field(default=None, compare=False, repr=False)
    explain: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not self.query:
            raise EmptyQueryError("query set is empty")
        if any(not isinstance(token, str) for token in self.query):
            raise InvalidParameterError("query tokens must be strings")
        check_k(self.k)
        if self.alpha is not None and not (0.0 < self.alpha <= 1.0):
            raise InvalidParameterError("alpha must be in (0, 1]")

    @classmethod
    def from_obj(cls, obj: dict) -> "SearchRequest":
        """Validate one decoded request object (unknown keys, such as
        the gateway's ``"tenant"``, are ignored)."""
        tokens = obj.get("query")
        if not isinstance(tokens, list):
            raise InvalidParameterError('request needs a "query" token list')
        if any(not isinstance(token, str) for token in tokens):
            raise InvalidParameterError("query tokens must be strings")
        kwargs: dict[str, Any] = {"query": frozenset(tokens)}
        if "k" in obj:
            if not isinstance(obj["k"], int) or isinstance(obj["k"], bool):
                raise InvalidParameterError('"k" must be an integer')
            kwargs["k"] = obj["k"]
        if obj.get("alpha") is not None:
            if not isinstance(obj["alpha"], (int, float)):
                raise InvalidParameterError('"alpha" must be a number')
            kwargs["alpha"] = float(obj["alpha"])
        if obj.get("id") is not None:
            kwargs["request_id"] = str(obj["id"])
        if obj.get("explain") is not None:
            if not isinstance(obj["explain"], bool):
                raise InvalidParameterError('"explain" must be a boolean')
            kwargs["explain"] = obj["explain"]
        trace_id = obj.get("trace_id")
        if isinstance(trace_id, str) and trace_id:
            kwargs["trace"] = SpanContext(trace_id=trace_id)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, line: str | bytes) -> "SearchRequest":
        """One request line -> request; raises where a server would
        answer a failure line."""
        # Imported here: the protocol module is built on these types.
        from repro.service.protocol import BLANK, MALFORMED, decode

        kind, value = decode(line)
        if kind is BLANK:
            raise InvalidParameterError("bad request JSON: blank line")
        if kind is MALFORMED:
            raise InvalidParameterError(value.error)
        return cls.from_obj(value)


@dataclass(frozen=True)
class Hit:
    """One ranked result set on the wire."""

    set_id: int
    name: str
    score: float
    exact: bool

    def to_obj(self) -> dict[str, Any]:
        return {
            "set_id": self.set_id,
            "name": self.name,
            "score": self.score,
            "exact": self.exact,
        }


@dataclass(frozen=True)
class SearchResponse:
    """The answer to one :class:`SearchRequest`."""

    request_id: str
    hits: tuple[Hit, ...]
    k: int
    cached: bool = False
    deduplicated: bool = False
    timed_out: bool = False
    seconds: float = 0.0
    error: str | None = None
    #: The EXPLAIN payload (:func:`repro.obs.explain.build_explain`)
    #: when the request asked for one; absent from the wire otherwise.
    explain: Any = None
    #: Partial-coverage answer: a distributed backend lost every
    #: replica of >= 1 partition. ``coverage`` is then
    #: ``[answered, total]`` partitions; both absent when healthy.
    degraded: bool = False
    coverage: tuple[int, int] | None = None

    @classmethod
    def failure(cls, request_id: str, error: str) -> "SearchResponse":
        return cls(request_id=request_id, hits=(), k=0, error=error)

    def to_obj(self) -> dict[str, Any]:
        if self.error is not None:
            return {"id": self.request_id, "error": self.error}
        obj: dict[str, Any] = {
            "id": self.request_id,
            "results": [hit.to_obj() for hit in self.hits],
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
        }
        if self.deduplicated:
            obj["deduplicated"] = True
        if self.timed_out:
            obj["timed_out"] = True
        if self.degraded:
            obj["degraded"] = True
            if self.coverage is not None:
                obj["coverage"] = list(self.coverage)
        if self.explain is not None:
            obj["explain"] = self.explain
        return obj

    def to_json(self) -> str:
        from repro.service.protocol import encode

        return encode(self)

    def result_lines(self) -> list[str]:
        """``score  name`` lines, the same layout ``repro search`` prints."""
        return [f"{hit.score:10.4f}  {hit.name}" for hit in self.hits]


def hits_from_result(result: SearchResult) -> tuple[Hit, ...]:
    """Project a :class:`~repro.core.koios.SearchResult` onto wire hits."""
    return tuple(
        Hit(
            set_id=entry.set_id,
            name=entry.name,
            score=entry.score,
            exact=entry.exact,
        )
        for entry in result.entries
    )
