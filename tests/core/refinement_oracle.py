"""Algorithm 1 tuple by tuple, kept as the oracle of the refinement engine.

This is the per-tuple refinement :mod:`repro.core.fastpath` replaced,
unchanged: the token stream ``Ie`` consumed one ``(q, t, s)`` tuple at a
time, each tuple probing the inverted index ``Is``; sets seen for the
first time are admitted as candidates (or killed on the spot by the
UB-Filter of Lemma 2), existing candidates extend their partial greedy
matching (Lemma 5), and after every tuple the iUB bucket structure is
swept to prune candidates whose incremental upper bound fell below
``theta_lb`` (Lemma 6). :class:`CandidateState` holds one candidate's
bounds, :class:`BucketStore` the buckets. :class:`ReferenceEngine` runs
a whole search through it — with the heap drain and per-candidate
verification — so the differential tests compare complete searches.

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

import bisect
import sys
import time
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Mapping

import numpy as np

from repro.core.bounds import SAFE, Survivors
from repro.core.config import FilterConfig
from repro.core.fastpath import resolve_alpha
from repro.core.koios import KoiosSearchEngine
from repro.core.postprocessing import VerifiedEntry, postprocess
from repro.core.stats import POSTPROCESSING, REFINEMENT, SearchStats
from repro.core.topk import GlobalThreshold, ThetaLB, TopKList
from repro.datasets.collection import SetCollection
from repro.errors import EmptyQueryError, InvalidParameterError, SearchTimeout
from repro.index.inverted import InvertedIndex
from repro.index.token_stream import MaterializedTokenStream
from repro.obs import traced_phase
from repro.service.pool import EnginePool
from repro.utils.memory import FLOAT_BYTES, INT_BYTES, container_bytes

#: How many stream tuples to process between deadline checks.
_DEADLINE_STRIDE = 256


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


class BucketStore:
    """Candidates bucketed by remaining slots, sorted by matched score."""

    def __init__(self) -> None:
        # m -> ascending list of (S_i, set_id)
        self._buckets: dict[int, list[tuple[float, int]]] = {}
        # set_id -> (m, S_i) locator for O(log) removal
        self._locator: dict[int, tuple[int, float]] = {}

    def __len__(self) -> int:
        return len(self._locator)

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._locator

    def bucket_keys(self) -> list[int]:
        return sorted(self._buckets)

    def insert(self, set_id: int, m_remaining: int, matched_score: float) -> None:
        if set_id in self._locator:
            raise InvalidParameterError(f"set {set_id} already bucketed")
        entry = (matched_score, set_id)
        bucket = self._buckets.setdefault(m_remaining, [])
        bisect.insort(bucket, entry)
        self._locator[set_id] = (m_remaining, matched_score)

    def remove(self, set_id: int) -> None:
        m_remaining, matched_score = self._locator.pop(set_id)
        bucket = self._buckets[m_remaining]
        index = bisect.bisect_left(bucket, (matched_score, set_id))
        # bisect lands on the exact entry because (score, id) is unique.
        del bucket[index]
        if not bucket:
            del self._buckets[m_remaining]

    def move(self, set_id: int, m_remaining: int, matched_score: float) -> None:
        """Relocate a candidate after its matching was extended."""
        self.remove(set_id)
        self.insert(set_id, m_remaining, matched_score)

    def sweep(
        self,
        stream_similarity: float,
        theta_lb: float,
        *,
        keep: Callable[[int], bool] | None = None,
    ) -> list[int]:
        """Prune every candidate with ``S_i + m * s < theta_lb``.

        Scans each bucket from its ascending front and stops at the first
        survivor, exactly as in the paper. ``keep`` is a veto hook used by
        safe mode: a candidate whose paper bound is prunable but whose
        sound bound is not stays in the bucket (re-examined on later
        sweeps). Returns the pruned set ids, already removed.
        """
        if theta_lb <= 0.0:
            return []
        pruned: list[int] = []
        for m_remaining in list(self._buckets):
            threshold = theta_lb - m_remaining * stream_similarity
            bucket = self._buckets.get(m_remaining)
            if bucket is None:
                continue
            index = 0
            while index < len(bucket):
                matched_score, set_id = bucket[index]
                if matched_score >= threshold:
                    break  # ascending order: the rest survive too
                if keep is not None and keep(set_id):
                    index += 1  # vetoed; leave in place, keep scanning
                    continue
                del bucket[index]
                del self._locator[set_id]
                pruned.append(set_id)
            if not bucket:
                del self._buckets[m_remaining]
        return pruned


@dataclass
class RefinementOutput:
    """What the loop hands to post-processing: the surviving candidates'
    states keyed by set id (:func:`survivors_of` turns them into the
    arrays post-processing takes), the filled similarity cache and the
    last stream similarity."""

    survivors: dict[int, CandidateState] = field(default_factory=dict)
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


def survivors_of(states: Mapping[int, CandidateState]) -> Survivors:
    """The arrays post-processing takes, from a ``set id -> state`` map."""
    count = len(states)
    return Survivors(
        ids=np.fromiter(states, dtype=np.int64, count=count),
        lower=np.fromiter(
            (state.lower_bound for state in states.values()),
            dtype=np.float64,
            count=count,
        ),
        upper=np.fromiter(
            (state.final_upper for state in states.values()),
            dtype=np.float64,
            count=count,
        ),
    )


def states_nbytes(states: Mapping[int, CandidateState]) -> int:
    """Estimated footprint of a ``set id -> state`` map: its table plus
    one flat pass summing each state's own estimate."""
    return sys.getsizeof(states) + sum(
        state.nbytes() for state in states.values()
    )


class ReferenceEngine(KoiosSearchEngine):
    """A search through the oracles: the heap drain
    (:meth:`MaterializedTokenStream.drain`), :func:`refine` and
    per-candidate verification (``postprocess`` without a verifier).

    Construction, the shared ``theta_lb``, deadlines and ``_rank`` are
    the engine's own, so any difference from
    :class:`KoiosSearchEngine` in entries, counters or the ``theta_lb``
    trajectory is a difference in the drain or in the two phases.
    """

    def drain(
        self, query, *, alpha: float | None = None
    ) -> MaterializedTokenStream:
        query_set = frozenset(query)
        if not query_set:
            raise EmptyQueryError("query set is empty")
        return MaterializedTokenStream.drain(
            query_set,
            self._token_index,
            resolve_alpha(self._alpha, alpha, self._token_index),
            collection_vocabulary=self._collection.vocabulary,
        )

    def _refine_and_verify(
        self,
        query: frozenset[str],
        k: int,
        alpha: float,
        stream: MaterializedTokenStream,
        shared: GlobalThreshold,
        sim_cache: dict[tuple[str, str], float],
        stats: SearchStats,
        deadline: float | None,
        cache_by_token: dict[str, list[tuple[str, float]]],
    ) -> list[VerifiedEntry]:
        theta = ThetaLB(TopKList(k), shared)
        with traced_phase(stats.timer, REFINEMENT):
            output = refine(
                query, stream, self._index, self._collection,
                theta, stats, self._config, sim_cache=sim_cache,
                deadline=deadline,
            )
        stats.memory.record(
            "candidate_states", states_nbytes(output.survivors)
        )
        with traced_phase(stats.timer, POSTPROCESSING):
            return postprocess(
                query, self._collection, survivors_of(output.survivors),
                self._sim, alpha, k, theta, stats, self._config,
                cache_by_token=cache_by_token, deadline=deadline,
            )


class ReferencePool(EnginePool):
    """An engine pool whose shard engines are the oracle: §VI's
    partitioned search with the two phases of :class:`ReferenceEngine`
    (the pool drains the stream it hands every shard)."""

    def _make_engine(self, set_ids):
        return ReferenceEngine(
            self._collection,
            self._token_index,
            self._sim,
            alpha=self._alpha,
            config=self._config,
            set_ids=set_ids,
            inverted_factory=getattr(self._collection, "delta_index", None),
        )


#: The engine under test and its oracle, by the name tests parametrize.
ENGINES = {"columnar": KoiosSearchEngine, "reference": ReferenceEngine}
#: The same pair as engine pools.
POOLS = {"columnar": EnginePool, "reference": ReferencePool}
