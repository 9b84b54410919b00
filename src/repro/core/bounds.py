"""Per-candidate bound bookkeeping (Lemmas 2-6).

A :class:`CandidateState` tracks, for one candidate set ``C``:

* the partial greedy matching built from the descending token stream —
  its score ``S_i`` is the incremental lower bound ``iLB`` (Lemma 5);
* the remaining matchable capacity ``m`` used by the incremental upper
  bound ``iUB(C) = S_i + m * s`` (Lemma 6);
* optionally (``safe`` mode) the best seen similarity per query element,
  backing a provably sound upper bound.

On the two iUB modes
--------------------
While reproducing Lemma 6 we found that the paper's bound can undercut
the true semantic overlap: the lemma's proof assumes every *unmatched*
element pair is bounded by the current stream similarity ``s``, but an
edge that streamed earlier (weight > s) and was *discarded* because one
endpoint was greedily matched can still appear in the optimal matching.
Example: ``Q = {q1, q2}``, ``C = {c1, c2}`` with
``sim(q1,c1) = sim(q2,c1) = sim(q1,c2) = 1.0``; greedy matches ``(q1,c1)``
(``S_i = 1``, ``m = 1``), yet ``SO = 2`` via ``(q2,c1), (q1,c2)``, so once
``s`` drops below 1 the paper bound ``1 + s`` is below ``SO``.

``paper`` mode (default) reproduces the published filter verbatim; such
near-tie configurations essentially never arise with embedding
similarities, which matches the paper's empirically exact results.
``safe`` mode replaces the bound with ``sum of the top-m' caps``, where
``cap(q)`` is the best similarity seen from ``q`` into ``C`` (defaulting
to ``s`` while the stream is live and to 0 once it is exhausted) and
``m' = min(|Q|, |C|)`` — sound for every input, at extra bookkeeping
cost. The ablation bench quantifies the difference.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

import numpy as np

from repro.errors import InvalidParameterError
from repro.utils.memory import FLOAT_BYTES, INT_BYTES, container_bytes

PAPER = "paper"
SAFE = "safe"
_MODES = (PAPER, SAFE)


def validate_iub_mode(mode: str) -> str:
    if mode not in _MODES:
        raise InvalidParameterError(
            f"iub_mode must be one of {_MODES}, got {mode!r}"
        )
    return mode


class CandidateState:
    """Incremental matching state of one candidate set against the query."""

    __slots__ = (
        "set_id",
        "candidate_size",
        "query_size",
        "matched_score",
        "matched_query",
        "matched_tokens",
        "caps",
        "final_upper",
        "checked",
        "exact",
    )

    def __init__(
        self,
        set_id: int,
        candidate_size: int,
        query_size: int,
        *,
        track_caps: bool = False,
    ) -> None:
        self.set_id = set_id
        self.candidate_size = candidate_size
        self.query_size = query_size
        self.matched_score = 0.0
        self.matched_query: set[str] = set()
        self.matched_tokens: set[str] = set()
        # ``caps`` is only populated in safe mode: query token -> best
        # similarity seen into this candidate so far.
        self.caps: dict[str, float] | None = {} if track_caps else None
        # Frozen at the end of refinement; used by post-processing.
        self.final_upper: float = float(candidate_size)
        self.checked = False
        self.exact = False

    # -- construction -----------------------------------------------------

    @classmethod
    def first_sight(
        cls,
        set_id: int,
        candidate_tokens: AbstractSet[str],
        query_tokens: AbstractSet[str],
        *,
        track_caps: bool = False,
        vanilla_init: bool = True,
    ) -> "CandidateState":
        """Initialize a newly discovered candidate with its vanilla overlap.

        The paper initializes both ``S_i`` and the lower bound to
        ``|Q ∩ C|`` (§V): identical tokens are weight-1 edges, the first
        edges any greedy matching takes, and this is how identical
        out-of-vocabulary tokens still count. ``vanilla_init=False``
        disables this (the ablation of §5 in DESIGN.md); exact matches are
        then picked up one by one from the stream's self-match tuples.
        """
        state = cls(
            set_id,
            candidate_size=len(candidate_tokens),
            query_size=len(query_tokens),
            track_caps=track_caps,
        )
        overlap = (query_tokens & candidate_tokens) if vanilla_init else frozenset()
        if overlap:
            state.matched_query.update(overlap)
            state.matched_tokens.update(overlap)
            state.matched_score = float(len(overlap))
            if state.caps is not None:
                for token in overlap:
                    state.caps[token] = 1.0
        return state

    # -- incremental updates ------------------------------------------------

    def observe(self, query_token: str, token: str, similarity: float) -> bool:
        """Process one stream edge ``(query_token, token, similarity)``
        where ``token`` belongs to this candidate.

        Returns True when the edge was valid (both endpoints unmatched)
        and extended the partial greedy matching; invalid edges are
        discarded but still tighten the safe-mode cap.
        """
        if self.caps is not None:
            current = self.caps.get(query_token, 0.0)
            if similarity > current:
                self.caps[query_token] = similarity
        if token in self.matched_tokens or query_token in self.matched_query:
            return False
        if self.m_remaining <= 0:
            return False
        self.matched_tokens.add(token)
        self.matched_query.add(query_token)
        self.matched_score += similarity
        return True

    # -- bounds ----------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Maximum matching cardinality ``min(|Q|, |C|)``."""
        return min(self.query_size, self.candidate_size)

    @property
    def matched_count(self) -> int:
        return len(self.matched_tokens)

    @property
    def m_remaining(self) -> int:
        """Unfilled matching slots ``m_i`` — the bucket key."""
        return self.capacity - self.matched_count

    @property
    def lower_bound(self) -> float:
        """``iLB``: score of the partial greedy matching (Lemma 5)."""
        return self.matched_score

    def upper_bound(
        self, stream_similarity: float, *, stream_exhausted: bool = False
    ) -> float:
        """The paper's ``iUB(C) = S_i + m * s`` (Lemma 6).

        ``stream_exhausted`` is accepted for signature parity with the
        safe bound; the paper's bound keeps the last stream similarity as
        the per-slot cap even after the stream ends.
        """
        del stream_exhausted
        return self.matched_score + self.m_remaining * stream_similarity

    def safe_upper_bound(
        self, stream_similarity: float, *, stream_exhausted: bool = False
    ) -> float:
        """Sound upper bound from per-query-element caps (safe mode).

        Any matching assigns each query element at most one candidate
        element; element pairs not yet streamed have similarity <= s (or
        thresholded to 0 once the stream is exhausted), streamed pairs
        are capped by the best similarity seen. Summing the largest
        ``capacity`` caps therefore dominates every matching score.
        """
        if self.caps is None:
            raise InvalidParameterError(
                "safe_upper_bound requires track_caps=True"
            )
        default = 0.0 if stream_exhausted else stream_similarity
        caps = [max(c, default) for c in self.caps.values()]
        unseen = self.query_size - len(caps)
        if unseen > 0 and default > 0.0:
            caps.extend([default] * unseen)
        caps.sort(reverse=True)
        return float(sum(caps[: self.capacity]))

    def effective_upper_bound(
        self,
        stream_similarity: float,
        mode: str,
        *,
        stream_exhausted: bool = False,
    ) -> float:
        """Dispatch between ``paper`` and ``safe`` iUB modes."""
        if mode == SAFE:
            return self.safe_upper_bound(
                stream_similarity, stream_exhausted=stream_exhausted
            )
        return self.upper_bound(
            stream_similarity, stream_exhausted=stream_exhausted
        )

    def freeze_final_upper(
        self, stream_similarity: float, mode: str, *, stream_exhausted: bool
    ) -> float:
        """Fix the upper bound carried into post-processing."""
        self.final_upper = self.effective_upper_bound(
            stream_similarity, mode, stream_exhausted=stream_exhausted
        )
        return self.final_upper

    def resolve(self, score: float) -> None:
        """Collapse the bounds onto an exactly computed overlap."""
        self.matched_score = score
        self.final_upper = score
        self.checked = True
        self.exact = True

    def nbytes(self) -> int:
        """Estimated footprint: the slotted object, its id and two
        floats, the matched-endpoint sets' tables and, in safe mode, the
        caps dict with one float per entry."""
        size = (
            sys.getsizeof(self)
            + INT_BYTES
            + 2 * FLOAT_BYTES
            + sys.getsizeof(self.matched_query)
            + sys.getsizeof(self.matched_tokens)
        )
        if self.caps is not None:
            size += container_bytes(self.caps, FLOAT_BYTES)
        return size


@dataclass(frozen=True)
class Survivors:
    """Refinement's survivors as they cross into post-processing.

    Algorithm 2 needs three numbers of a surviving candidate — its id,
    its lower bound ``S_i`` and its frozen upper bound — so the phase
    boundary carries three parallel arrays, not one object per set.
    """

    ids: np.ndarray      # int64
    lower: np.ndarray    # float64
    upper: np.ndarray    # float64

    @classmethod
    def of(
        cls, survivors: "Survivors | Mapping[int, CandidateState]"
    ) -> "Survivors":
        """``survivors`` itself, or the arrays of a ``set id -> state``
        map (what the reference refinement hands over)."""
        if isinstance(survivors, cls):
            return survivors
        count = len(survivors)
        return cls(
            ids=np.fromiter(survivors, dtype=np.int64, count=count),
            lower=np.fromiter(
                (state.lower_bound for state in survivors.values()),
                dtype=np.float64,
                count=count,
            ),
            upper=np.fromiter(
                (state.final_upper for state in survivors.values()),
                dtype=np.float64,
                count=count,
            ),
        )

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def nbytes(self) -> int:
        return int(self.ids.nbytes + self.lower.nbytes + self.upper.nbytes)


def candidate_states_nbytes(
    states: "Survivors | Mapping[int, CandidateState]",
) -> int:
    """Estimated footprint of what refinement hands over: the three
    arrays, or a ``set id -> state`` map's table plus one flat pass
    summing each state's own estimate."""
    if isinstance(states, Survivors):
        return states.nbytes()
    return sys.getsizeof(states) + sum(
        state.nbytes() for state in states.values()
    )


def vanilla_overlap(query_tokens: Iterable[str], candidate_tokens: AbstractSet[str]) -> int:
    """``|Q ∩ C|`` — the lower bound of Lemma 1."""
    return sum(1 for token in set(query_tokens) if token in candidate_tokens)
