"""Candidate bounds (Lemmas 2-6): the iUB modes and the survivors'
arrays.

Refinement tracks, for each candidate set ``C``:

* the partial greedy matching built from the descending token stream —
  its score ``S_i`` is the incremental lower bound ``iLB`` (Lemma 5);
* the remaining matchable capacity ``m`` used by the incremental upper
  bound ``iUB(C) = S_i + m * s`` (Lemma 6);
* optionally (``safe`` mode) the best seen similarity per query element,
  backing a provably sound upper bound.

:mod:`repro.core.fastpath` keeps that state as arrays; the candidates
it does not prune cross into post-processing as :class:`Survivors`.

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

from dataclasses import dataclass
from typing import AbstractSet, Iterable

import numpy as np

from repro.errors import InvalidParameterError

PAPER = "paper"
SAFE = "safe"
_MODES = (PAPER, SAFE)


def validate_iub_mode(mode: str) -> str:
    if mode not in _MODES:
        raise InvalidParameterError(
            f"iub_mode must be one of {_MODES}, got {mode!r}"
        )
    return mode


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

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def nbytes(self) -> int:
        return int(self.ids.nbytes + self.lower.nbytes + self.upper.nbytes)


def vanilla_overlap(query_tokens: Iterable[str], candidate_tokens: AbstractSet[str]) -> int:
    """``|Q ∩ C|`` — the lower bound of Lemma 1."""
    return sum(1 for token in set(query_tokens) if token in candidate_tokens)
