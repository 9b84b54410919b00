"""The transport-agnostic serving backend contract.

:class:`~repro.service.scheduler.QueryScheduler` and the JSON-lines
server were written against :class:`~repro.service.pool.EnginePool`;
this module names the slice of that surface they actually use, so any
object that executes searches — a thread-sharded pool in this process,
or the multi-process scatter-gather coordinator of
:mod:`repro.cluster` — can sit behind the same scheduler, cache, and
wire protocol unchanged.

The contract is intentionally the *semantic* one, not a transport one:

* ``version`` keys the result cache — it must change whenever results
  could change, and it must be hashable;
* ``drain``/``search`` must produce results bitwise-identical to an
  in-process :class:`~repro.service.pool.EnginePool` with the same
  shard layout (exactness is the product; no backend may trade it away
  silently);
* mutations are applied synchronously — when ``insert``/``delete``/
  ``replace`` returns, every subsequent ``search`` observes the new
  state (cluster backends enforce this with a version barrier across
  worker processes).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Protocol, runtime_checkable

from repro.core.koios import SearchResult
from repro.datasets.collection import SetCollection
from repro.errors import InvalidParameterError
from repro.index.token_stream import MaterializedTokenStream


def resolve_alpha(
    default_alpha: float, alpha: float | None, token_index
) -> float:
    """Resolve a per-call alpha against the backend default, refusing
    thresholds the token index cannot serve exactly (a prefix-Jaccard
    index built for alpha_0 silently drops matches below alpha_0 — that
    must be a loud error on the wire, not missing results). Shared by
    every backend so validation can never drift between them."""
    effective = default_alpha if alpha is None else alpha
    if not (0.0 < effective <= 1.0):
        raise InvalidParameterError("alpha must be in (0, 1]")
    index_alpha = getattr(token_index, "alpha", None)
    if index_alpha is not None and effective < index_alpha:
        raise InvalidParameterError(
            f"token index is only exact for alpha >= {index_alpha}; "
            f"rebuild it for alpha {effective} to search below that"
        )
    return effective


def require_mutable(collection: SetCollection):
    """The collection, if it supports live mutation; loud otherwise."""
    if not hasattr(collection, "insert"):
        raise InvalidParameterError(
            "collection is immutable; serve a MutableSetCollection "
            "(e.g. 'repro serve <snapshot> --wal <log>') to enable "
            "insert/delete/replace"
        )
    return collection


def materialize_stream(
    token_index,
    collection: SetCollection,
    query_set: frozenset[str],
    alpha: float,
) -> MaterializedTokenStream:
    """Drain one replayable stream over the collection's vocabulary —
    the exact drain every backend (and every cluster worker) performs,
    kept in one place so replicas can never drain differently."""
    from repro.core.fastpath import drain_stream
    from repro.index.interning import token_table_for

    return drain_stream(
        query_set,
        token_index,
        alpha,
        vocabulary=collection.vocabulary,
        table=token_table_for(collection),
    )


@runtime_checkable
class SearchBackend(Protocol):
    """What the scheduler and server require of a serving backend."""

    @property
    def collection(self) -> SetCollection:
        """The live repository (used to resolve names for WAL records)."""
        ...

    @property
    def alpha(self) -> float:
        """Default element-similarity threshold for requests without one."""
        ...

    @property
    def version(self) -> Hashable:
        """Cache-key component; changes whenever results could change."""
        ...

    def drain(
        self, query: Iterable[str], *, alpha: float | None = None
    ) -> MaterializedTokenStream:
        """Drain one replayable token stream covering ``query``."""
        ...

    def search(
        self,
        query: Iterable[str],
        k: int = 10,
        *,
        alpha: float | None = None,
        stream: MaterializedTokenStream | None = None,
        time_budget: float | None = None,
    ) -> SearchResult:
        """Exact global top-k for ``query``."""
        ...

    def insert(
        self, tokens: Iterable[str], *, name: str | None = None
    ) -> int:
        """Add a set to the live collection; returns its id."""
        ...

    def delete(self, ref: int | str) -> int:
        """Remove a live set by id or name; returns the id."""
        ...

    def replace(self, ref: int | str, tokens: Iterable[str]) -> int:
        """Swap a live set's contents; returns the new id."""
        ...

    def stats_snapshot(self) -> Mapping[str, object]:
        """Backend-side observability for the ``stats`` wire op."""
        ...
