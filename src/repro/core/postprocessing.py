"""Algorithm 2 — the post-processing (verification) phase of Koios.

Candidates surviving refinement carry a lower bound ``LB`` (their partial
greedy matching score) and a frozen upper bound ``UB``. Post-processing
repeatedly takes the unchecked set with the largest ``UB`` — the set with
the best shot at the top-k — and resolves it one of four ways:

* **discard** without matching when ``UB < theta_lb`` (it cannot beat the
  current k-th lower bound);
* **No-EM accept** (Lemma 7) when ``LB >= theta_ub``, where ``theta_ub``
  is the k-th largest upper bound among the still-alive sets: the set is
  certainly in a top-k result, no matching needed;
* **EM-early-terminate** (Lemma 8): the Hungarian label sum, itself an
  upper bound on ``SO``, dropped below ``theta_lb`` mid-matching — the
  set is certainly *not* in the result;
* **full EM**: the matching completes and the set's bounds collapse onto
  its exact semantic overlap, which may raise ``theta_lb`` and doom
  other sets.

The phase terminates when every set among the k largest upper bounds is
checked; at that point every unchecked set ``X`` satisfies
``SO(X) <= UB(X) < theta_ub <= LB(C)`` for all result sets ``C`` — the
paper's termination condition, and the reason the result is exact.

Verification can optionally run on a thread pool (the paper uses a C++
thread pool); all workers read the *live* ``theta_lb`` through a callable,
so a matching finishing on one thread can early-terminate matchings
running on others.
"""

from __future__ import annotations

import bisect
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.bounds import CandidateState, Survivors
from repro.core.config import FilterConfig
from repro.core.semantic_overlap import semantic_overlap_matching
from repro.core.stats import SearchStats
from repro.core.topk import ThetaLB
from repro.datasets.collection import SetCollection
from repro.errors import SearchTimeout
from repro.obs import annotate
from repro.sim.base import SimilarityFunction
from repro.utils.memory import FLOAT_BYTES, INT_BYTES, container_bytes


@dataclass(frozen=True)
class VerifiedEntry:
    """One set emerging from post-processing.

    ``score`` is the exact semantic overlap when ``exact`` is True;
    otherwise the set was accepted by the No-EM filter and ``score`` is
    its certified lower bound (the facade can resolve it on demand).
    """

    set_id: int
    score: float
    exact: bool
    lower_bound: float
    upper_bound: float


class _UpperBoundLedger:
    """The alive sets' upper bounds and the order the phase visits them.

    An unchecked set's bound never changes in this phase — only a
    completed matching lowers one, and that set is checked from then on
    — so the visiting order (largest bound first, lower id on ties) is
    one ``(-UB, id)`` sort made up front: ``ids`` / ``lower`` / ``upper``
    are the survivors in that order. ``theta_ub`` reads the same bounds
    as one ascending list, from which a retired set's bound is removed
    and in which a matched set's bound moves down to its exact score.
    The walk retires sets from the top of that list, so the splices
    stay short however many survivors — tens of thousands on a dense
    corpus — a partition sees.
    """

    def __init__(self, survivors: Survivors, k: int) -> None:
        order = np.lexsort((survivors.ids, -survivors.upper))
        self.ids: list[int] = survivors.ids[order].tolist()
        self.lower: list[float] = survivors.lower[order].tolist()
        self.upper: list[float] = survivors.upper[order].tolist()
        #: How many of them the walk has visited so far.
        self.visited = 0
        self._sorted = self.upper[::-1]
        self._k = k

    def __len__(self) -> int:
        """Sets still alive."""
        return len(self._sorted)

    def theta_ub(self) -> float:
        """The k-th largest alive upper bound; 0.0 when fewer than k sets
        are alive (then everything alive belongs to the result)."""
        if len(self._sorted) < self._k:
            return 0.0
        return self._sorted[-self._k]

    def remove(self, bound: float) -> None:
        """A set whose current bound is ``bound`` died."""
        del self._sorted[bisect.bisect_left(self._sorted, bound)]

    def lower_to(self, bound: float, value: float) -> None:
        """A set's bound dropped from ``bound`` to ``value`` (bounds
        never increase in this phase)."""
        self.remove(bound)
        bisect.insort(self._sorted, value)

    def nbytes(self) -> int:
        """Estimated footprint: one id and two bounds per survivor, plus
        the ascending list's table (it shares the bound floats)."""
        return (
            container_bytes(self.ids, INT_BYTES)
            + container_bytes(self.lower, FLOAT_BYTES)
            + container_bytes(self.upper, FLOAT_BYTES)
            + container_bytes(self._sorted, 0)
        )


def postprocess(
    query: frozenset[str],
    collection: SetCollection,
    survivors: Survivors | Mapping[int, CandidateState],
    sim: SimilarityFunction,
    alpha: float,
    k: int,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    *,
    sim_cache: Mapping[tuple[str, str], float] | None = None,
    cache_by_token: dict[str, list[tuple[str, float]]] | None = None,
    em_workers: int = 0,
    deadline: float | None = None,
    verifier=None,
) -> list[VerifiedEntry]:
    """Run Algorithm 2 over one partition's surviving candidates.

    Parameters
    ----------
    survivors:
        What refinement handed over: :class:`~repro.core.bounds.Survivors`
        arrays, or the reference loop's ``set id -> state`` map.
    cache_by_token:
        The ``sim_cache`` already grouped by vocabulary token (see
        :func:`index_cache_by_token`). The columnar engine groups the
        full stream cache once per search and shares it across
        partitions; when omitted it is derived from ``sim_cache`` here.
    em_workers:
        When > 1, up to this many Hungarian verifications run concurrently
        on a thread pool sharing the live ``theta_lb``.
    deadline:
        Absolute ``time.perf_counter()`` deadline; exceeding it raises
        :class:`~repro.errors.SearchTimeout` (the facade converts that
        into a partial, flagged result — the paper's "timed-out query").
        The deadline is threaded into the matchings themselves (the
        solver re-reads its bound callable after every labeling update),
        so a single slow Hungarian run — including ones on pooled
        workers — aborts promptly instead of overshooting the budget by
        a whole batch.
    verifier:
        Optional :class:`~repro.core.fastpath_verify.ColumnarVerifier`.
        When given, it answers each verification — from one batched
        pass for the sets the initial Lemma-8 check retires, from its
        shared weight block for the rest — instead of per-candidate
        ``cache_view`` + ``build_graph`` calls; the pruning schedule
        below is untouched either way, which is what keeps the two
        verification engines bitwise-identical.

    Returns the partition's (at most k) result sets in descending
    score/bound order.
    """
    survivors = Survivors.of(survivors)
    if not len(survivors):
        return []

    ledger = _UpperBoundLedger(survivors, k)
    stats.memory.record("postproc_upper_bounds", ledger.nbytes())
    if cache_by_token is None:
        cache_by_token = index_cache_by_token(sim_cache)
    if verifier is not None:
        verifier.prepare(survivors.ids, cache_by_token)
    ids, upper = ledger.ids, ledger.upper
    # The sets the walk visited and kept alive — accepted without a
    # matching or matched to completion — as the entries they would
    # leave the phase with.
    kept: dict[int, VerifiedEntry] = {}

    bound_reader: Callable[[], float] | None = None
    if config.use_em_early_termination:
        bound_reader = lambda: theta.value  # noqa: E731 — live threshold
    if deadline is not None:
        bound_reader = _deadline_bound(bound_reader, deadline)

    def verify(position: int):
        """One Hungarian run against the live threshold."""
        set_id = ids[position]
        if verifier is not None:
            return position, verifier.match(set_id, bound_reader)
        result, _, _ = semantic_overlap_matching(
            query,
            collection[set_id],
            sim,
            alpha,
            cached_scores=cache_view(cache_by_token, collection[set_id]),
            bound=bound_reader,
        )
        return position, result

    def apply_em_result(position: int, result) -> None:
        stats.em_label_updates += result.label_updates
        if result.pruned:
            stats.em_early_terminated += 1
            if not result.label_updates:
                # Lemma 8 on the initial labeling: no solver work.
                stats.em_initial_pruned += 1
            ledger.remove(upper[position])
            return
        stats.em_full += 1
        set_id, score, bound = ids[position], result.score, upper[position]
        if score < bound:
            ledger.lower_to(bound, score)
            bound = score
        kept[set_id] = VerifiedEntry(
            set_id=set_id,
            score=score,
            exact=True,
            lower_bound=score,
            upper_bound=bound,
        )
        theta.offer(set_id, score)

    batch_size = max(1, em_workers)
    executor = (
        ThreadPoolExecutor(max_workers=em_workers) if em_workers > 1 else None
    )
    try:
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise SearchTimeout("post-processing exceeded its budget")
            batch = _select_batch(
                ledger, kept, theta, stats, config, batch_size
            )
            if not batch:
                break
            if executor is None or len(batch) == 1:
                for position in batch:
                    apply_em_result(*verify(position))
            else:
                for position, result in executor.map(verify, batch):
                    apply_em_result(position, result)
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    # Sets still alive but never examined when the phase terminated were
    # resolved without any matching; the paper's per-filter tables count
    # them in the No-EM column, and so do we.
    unvisited = len(ids) - ledger.visited
    stats.no_em_discarded += unvisited
    if verifier is not None:
        verifier_bytes = verifier.nbytes()
        stats.memory.record("verify_weight_block", verifier_bytes)
        # Resource attribution for per-tenant accounting and EXPLAIN:
        # the batched matmul's size/FLOPs and the bytes the phase
        # scanned to answer its verifications.
        stats.verify_matmul_cells += verifier.matmul_cells
        stats.verify_matmul_flops += verifier.matmul_flops
        stats.verify_bytes_scanned += verifier_bytes
        stats.verify_fallbacks += verifier.fallback_count
    # Tracing hook (observation only): how verification resolved the
    # survivors — exact matchings run vs. sets retired without one.
    annotate(em_checked=len(kept), no_em=unvisited, survivors=len(ledger))
    return _final_entries(kept, k)


def _deadline_bound(
    base: Callable[[], float] | None, deadline: float
) -> Callable[[], float | None]:
    """Wrap the early-termination bound with the phase deadline.

    The solver re-reads its bound after every labeling update, so
    checking the clock there bounds how far a single matching can
    overshoot the budget — previously the deadline was only polled
    between batches, and one slow Hungarian run could blow far past it.
    Returning ``None`` (no early termination configured) keeps the
    solver's pruning behaviour unchanged; the wrapper only adds the
    timeout side-channel.
    """

    def read() -> float | None:
        if time.perf_counter() > deadline:
            raise SearchTimeout("post-processing exceeded its budget")
        return None if base is None else base()

    return read


def index_cache_by_token(
    sim_cache: Mapping[tuple[str, str], float] | None,
) -> dict[str, list[tuple[str, float]]]:
    """Group the refinement similarity cache by vocabulary token so each
    candidate's cache view costs O(|C|) instead of O(|cache|)."""
    by_token: dict[str, list[tuple[str, float]]] = {}
    if sim_cache:
        for (q_token, token), score in sim_cache.items():
            by_token.setdefault(token, []).append((q_token, score))
    return by_token


def cache_view(
    cache_by_token: dict[str, list[tuple[str, float]]],
    members: frozenset[str],
) -> dict[tuple[str, str], float] | None:
    """Restrict the refinement similarity cache to one candidate's tokens."""
    if not cache_by_token:
        return None
    return {
        (q_token, token): score
        for token in members
        for q_token, score in cache_by_token.get(token, ())
    }


def _select_batch(
    ledger: _UpperBoundLedger,
    kept: dict[int, VerifiedEntry],
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    batch_size: int,
) -> list[int]:
    """Pick the next sets that genuinely need a graph matching.

    Continues the ledger's walk and applies, in upper-bound order:
    termination (the highest unchecked bound fell out of the top-k), the
    lazy ``UB < theta_lb`` discard, and the No-EM acceptance — exactly
    the order of Algorithm 2. Returns at most ``batch_size`` walk
    positions for verification.
    """
    ids, lower, upper = ledger.ids, ledger.lower, ledger.upper
    theta_ub = ledger.theta_ub
    gated = not config.exhaustive_verification
    use_no_em = config.use_no_em
    batch: list[int] = []
    position = ledger.visited
    while len(batch) < batch_size and position < len(ids):
        bound = upper[position]
        if gated and bound < theta_ub():
            break  # every unchecked set is outside L_ub: phase complete
        if gated and bound < theta.value:
            stats.no_em_discarded += 1
            ledger.remove(bound)
        elif use_no_em and lower[position] >= theta_ub():
            stats.no_em_accepted += 1
            set_id = ids[position]
            kept[set_id] = VerifiedEntry(
                set_id=set_id,
                score=lower[position],
                exact=False,
                lower_bound=lower[position],
                upper_bound=bound,
            )
        else:
            # Batching several EMs is sound: theta_ub only decreases and
            # theta_lb only increases, so acceptances and discards made
            # while sibling verifications are in flight can never become
            # invalid.
            batch.append(position)
        position += 1
    ledger.visited = position
    return batch


def _final_entries(
    kept: dict[int, VerifiedEntry], k: int
) -> list[VerifiedEntry]:
    """The final ``L_ub``: the k alive sets with the largest bounds.

    All of them were visited and kept — the walk stops only once every
    unvisited bound is strictly below the k-th largest alive one — so
    they are chosen among ``kept``; ties at the k-th bound prefer lower
    set ids, making the output deterministic.
    """
    ranked = sorted(
        kept.values(), key=lambda e: (-e.upper_bound, e.set_id)
    )
    return sorted(ranked[:k], key=lambda e: (-e.score, e.set_id))
