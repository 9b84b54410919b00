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
* mutations arrive as one validated
  :class:`~repro.store.mutation.Mutation` through ``mutate``, which
  applies it with :func:`~repro.store.mutation.apply_mutation` — a
  refused write changes nothing — and synchronously: when ``mutate``
  returns, every subsequent ``search`` observes the new state (cluster
  backends enforce this with a version barrier across worker
  processes).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Protocol, runtime_checkable

from repro.core.koios import SearchResult
from repro.index.token_stream import MaterializedTokenStream
from repro.store.mutation import Mutation


@runtime_checkable
class SearchBackend(Protocol):
    """What the scheduler and server require of a serving backend."""

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

    def mutate(self, mutation: Mutation) -> tuple[int, Mutation]:
        """Apply one mutation to the live collection; returns the
        affected set id and the name-keyed mutation to log."""
        ...

    def stats_snapshot(self) -> Mapping[str, object]:
        """Backend-side observability for the ``stats`` wire op."""
        ...
