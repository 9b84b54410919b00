"""Algorithm 1 — the refinement phase of Koios.

The refinement consumes the token stream ``Ie`` tuple by tuple. Each
tuple ``(q, t, s)`` (query element, vocabulary token, similarity, in
non-increasing ``s`` order) probes the inverted index ``Is``; sets seen
for the first time are admitted as candidates (or killed on the spot by
the UB-Filter of Lemma 2), existing candidates extend their partial
greedy matching (Lemma 5), and after every tuple the iUB bucket structure
is swept to prune candidates whose incremental upper bound fell below
``theta_lb`` (Lemma 6). No graph matching happens here — that is the
whole point of the phase.

One deliberate deviation from the paper's pseudocode: Algorithm 1 line 5
gates the inverted-index probe on ``s >= L_lb.bottom()``. Read literally,
that stops *discovering* new candidates as soon as ``theta_lb`` exceeds
the (always <= 1) stream similarity, which would silently drop sets whose
semantic overlap accrues from many medium-similarity edges and would
contradict the correctness argument of §VII (which requires every set
with non-zero semantic overlap to be considered). We therefore probe the
index for every tuple and rely on the UB-Filter at first sight, which is
what §VII's case (1) actually argues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.bounds import CandidateState, Survivors
from repro.core.buckets import BucketStore
from repro.core.config import FilterConfig
from repro.core.stats import SearchStats
from repro.core.topk import ThetaLB
from repro.datasets.collection import SetCollection
from repro.errors import SearchTimeout
from repro.index.inverted import InvertedIndex

#: How many stream tuples to process between deadline checks.
_DEADLINE_STRIDE = 256


@dataclass
class RefinementOutput:
    """What the refinement phase hands to post-processing.

    Attributes
    ----------
    survivors:
        The candidates that were not pruned, each with its final lower
        bound and frozen final upper bound: states keyed by set id from
        this module's loop, the same three numbers as
        :class:`~repro.core.bounds.Survivors` arrays from the columnar
        engine. Post-processing takes either.
    sim_cache:
        ``(query_token, token) -> similarity`` for every streamed pair —
        reused to initialize verification matrices (§VIII-A3).
    last_similarity:
        Similarity of the final stream tuple (1.0 for an empty stream);
        it caps every unstreamed pair in the paper's iUB.
    """

    survivors: dict[int, CandidateState] | Survivors = field(
        default_factory=dict
    )
    sim_cache: dict[tuple[str, str], float] = field(default_factory=dict)
    last_similarity: float = 1.0


def refine(
    query: frozenset[str],
    stream,
    inverted: InvertedIndex,
    collection: SetCollection,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    *,
    sim_cache: dict[tuple[str, str], float] | None = None,
    deadline: float | None = None,
) -> RefinementOutput:
    """Run Algorithm 1 over one partition.

    Parameters
    ----------
    query:
        The query set ``Q``.
    stream:
        An iterable of ``(q, t, s)`` :data:`StreamTuple` in non-increasing
        ``s`` order (a live :class:`~repro.index.token_stream.TokenStream`
        or a replayed materialized one).
    inverted:
        The partition's inverted index ``Is``.
    collection:
        The full repository (used to fetch candidate member tokens).
    theta:
        The partition's ``theta_lb`` tracker; offering lower bounds here
        also publishes them to the cross-partition shared threshold.
    stats:
        Counter sink; this function fills the refinement counters.
    config:
        Which filters are active (Koios vs Baseline/Baseline+/ablations).
    sim_cache:
        Optional shared ``(q, t) -> s`` cache to fill; partitions replay
        one materialized stream, so the facade passes a single dict.
    deadline:
        Absolute ``time.perf_counter()`` deadline; exceeding it raises
        :class:`~repro.errors.SearchTimeout`.
    """
    candidates: dict[int, CandidateState] = {}
    pruned: set[int] = set()
    buckets = BucketStore()
    if sim_cache is None:
        sim_cache = {}
    last_similarity = 1.0

    for q_token, token, similarity in stream:
        stats.stream_tuples += 1
        if (
            deadline is not None
            and stats.stream_tuples % _DEADLINE_STRIDE == 0
            and time.perf_counter() > deadline
        ):
            raise SearchTimeout("refinement exceeded its budget")
        last_similarity = similarity
        cached = sim_cache.get((q_token, token))
        if cached is None or similarity > cached:
            sim_cache[(q_token, token)] = similarity

        for set_id in inverted.sets_containing(token):
            if set_id in pruned:
                continue
            state = candidates.get(set_id)
            if state is None:
                _admit_candidate(
                    set_id,
                    q_token,
                    token,
                    similarity,
                    query,
                    collection,
                    candidates,
                    pruned,
                    buckets,
                    theta,
                    stats,
                    config,
                )
                continue
            stats.observed_edges += 1
            if state.observe(q_token, token, similarity):
                stats.bucket_moves += 1
                if config.use_iub_buckets:
                    buckets.move(set_id, state.m_remaining, state.matched_score)
                theta.offer(set_id, state.lower_bound)
            else:
                stats.discarded_edges += 1

        if config.use_iub_buckets:
            _sweep_buckets(
                buckets, candidates, pruned, similarity, theta, stats, config
            )

    stats.final_stream_similarity = last_similarity
    for state in candidates.values():
        state.freeze_final_upper(
            last_similarity, config.iub_mode, stream_exhausted=True
        )

    return RefinementOutput(
        survivors=candidates,
        sim_cache=sim_cache,
        last_similarity=last_similarity,
    )


def _admit_candidate(
    set_id: int,
    q_token: str,
    token: str,
    similarity: float,
    query: frozenset[str],
    collection: SetCollection,
    candidates: dict[int, CandidateState],
    pruned: set[int],
    buckets: BucketStore,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
) -> None:
    """First sight of a candidate: initialize, UB-filter, enroll."""
    members = collection[set_id]
    state = CandidateState.first_sight(
        set_id,
        members,
        query,
        track_caps=config.track_caps,
        vanilla_init=config.vanilla_initialization,
    )
    stats.candidates += 1
    # The discovering edge itself joins the partial matching (it is the
    # set's maximum-similarity edge; with vanilla initialization it is a
    # no-op for exact matches already counted).
    state.observe(q_token, token, similarity)
    if config.use_first_sight_ub:
        upper = state.effective_upper_bound(similarity, config.iub_mode)
        if upper < theta.value:
            pruned.add(set_id)
            stats.pruned_first_sight += 1
            return
    candidates[set_id] = state
    if config.use_iub_buckets:
        buckets.insert(set_id, state.m_remaining, state.matched_score)
    theta.offer(set_id, state.lower_bound)


def _sweep_buckets(
    buckets: BucketStore,
    candidates: dict[int, CandidateState],
    pruned: set[int],
    similarity: float,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
) -> None:
    """One iUB bucket sweep at the current stream similarity."""
    keep = None
    if config.track_caps:
        # Safe mode only prunes candidates whose *sound* bound is also
        # below theta_lb; others are vetoed and stay bucketed.
        def keep(set_id: int) -> bool:
            sound = candidates[set_id].safe_upper_bound(similarity)
            return sound >= theta.value

    for set_id in buckets.sweep(similarity, theta.value, keep=keep):
        pruned.add(set_id)
        del candidates[set_id]
        stats.pruned_bucket += 1
