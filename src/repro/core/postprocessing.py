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
import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.bounds import CandidateState
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
    """Tracks the current upper bound of every alive set.

    Supports the three operations the phase needs at low cost: the k-th
    largest bound (``theta_ub``), decreasing a set's bound, and removal.
    Bounds live in one ascending bisect-maintained list; python's C-level
    ``list`` splicing keeps this fast for the few thousand survivors a
    partition sees.
    """

    def __init__(self, bounds: Mapping[int, float], k: int) -> None:
        self._bounds = dict(bounds)
        self._sorted = sorted(self._bounds.values())
        self._k = k

    def __contains__(self, set_id: int) -> bool:
        return set_id in self._bounds

    def __len__(self) -> int:
        return len(self._bounds)

    def value(self, set_id: int) -> float:
        return self._bounds[set_id]

    def theta_ub(self) -> float:
        """The k-th largest alive upper bound; 0.0 when fewer than k sets
        are alive (then everything alive belongs to the result)."""
        if len(self._sorted) < self._k:
            return 0.0
        return self._sorted[-self._k]

    def _drop_value(self, value: float) -> None:
        index = bisect.bisect_left(self._sorted, value)
        del self._sorted[index]

    def remove(self, set_id: int) -> None:
        self._drop_value(self._bounds.pop(set_id))

    def lower_to(self, set_id: int, value: float) -> None:
        """Decrease a set's bound (bounds never increase in this phase)."""
        self._drop_value(self._bounds[set_id])
        bisect.insort(self._sorted, value)
        self._bounds[set_id] = value

    def alive_ids(self) -> list[int]:
        return list(self._bounds)

    def nbytes(self) -> int:
        """Estimated footprint: one id and one bound per alive set,
        plus the sorted list's table (it shares the bound floats)."""
        return container_bytes(
            self._bounds, INT_BYTES + FLOAT_BYTES
        ) + container_bytes(self._sorted, 0)


def postprocess(
    query: frozenset[str],
    collection: SetCollection,
    survivors: dict[int, CandidateState],
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
        When given, candidate weight matrices come from its shared
        batched-matmul block instead of per-candidate ``cache_view`` +
        ``build_graph`` calls; the pruning schedule below is untouched
        either way, which is what keeps the two verification engines
        bitwise-identical.

    Returns the partition's (at most k) result sets in descending
    score/bound order.
    """
    if not survivors:
        return []

    ledger = _UpperBoundLedger(
        {sid: state.final_upper for sid, state in survivors.items()}, k
    )
    if cache_by_token is None:
        cache_by_token = index_cache_by_token(sim_cache)
    if verifier is not None:
        verifier.prepare(survivors, cache_by_token)
    lower: dict[int, float] = {
        sid: state.lower_bound for sid, state in survivors.items()
    }
    exact: dict[int, float] = {}
    checked: set[int] = set()
    # Max-heap over unchecked alive sets; stale entries are skipped by
    # comparing against the ledger's current value.
    heap: list[tuple[float, int]] = [
        (-ub, sid)
        for sid, ub in ((s, ledger.value(s)) for s in ledger.alive_ids())
    ]
    heapq.heapify(heap)

    bound_reader: Callable[[], float] | None = None
    if config.use_em_early_termination:
        bound_reader = lambda: theta.value  # noqa: E731 — live threshold
    if deadline is not None:
        bound_reader = _deadline_bound(bound_reader, deadline)

    def verify(set_id: int):
        """One Hungarian run against the live threshold."""
        if verifier is not None:
            return set_id, verifier.match(set_id, bound_reader)
        result, _, _ = semantic_overlap_matching(
            query,
            collection[set_id],
            sim,
            alpha,
            cached_scores=cache_view(cache_by_token, collection[set_id]),
            bound=bound_reader,
        )
        return set_id, result

    def apply_em_result(set_id: int, result) -> None:
        stats.em_label_updates += result.label_updates
        if result.pruned:
            stats.em_early_terminated += 1
            ledger.remove(set_id)
            lower.pop(set_id, None)
            return
        score = result.score
        stats.em_full += 1
        survivors[set_id].resolve(score)
        exact[set_id] = score
        checked.add(set_id)
        if score < ledger.value(set_id):
            ledger.lower_to(set_id, score)
        lower[set_id] = score
        theta.offer(set_id, score)

    executor = (
        ThreadPoolExecutor(max_workers=em_workers) if em_workers > 1 else None
    )
    try:
        while True:
            if deadline is not None and time.perf_counter() > deadline:
                raise SearchTimeout("post-processing exceeded its budget")
            batch = _select_batch(
                heap, ledger, lower, checked, theta, stats, config,
                max(1, em_workers),
            )
            if not batch:
                break
            if executor is None or len(batch) == 1:
                for set_id in batch:
                    apply_em_result(*verify(set_id))
            else:
                for set_id, result in executor.map(verify, batch):
                    apply_em_result(set_id, result)
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    # Sets still alive but never examined when the phase terminated were
    # resolved without any matching; the paper's per-filter tables count
    # them in the No-EM column, and so do we.
    stats.no_em_discarded += len(ledger) - len(checked)
    stats.memory.record("postproc_upper_bounds", ledger.nbytes())
    if verifier is not None:
        stats.memory.record("verify_weight_block", verifier.nbytes())
        # Resource attribution for per-tenant accounting and EXPLAIN:
        # the batched matmul's size/FLOPs and the weight-block bytes
        # every column gather scans.
        stats.verify_matmul_cells += verifier.matmul_cells
        stats.verify_matmul_flops += verifier.matmul_flops
        stats.verify_bytes_scanned += verifier.nbytes()
        stats.verify_fallbacks += verifier.fallback_count
    # Tracing hook (observation only): how verification resolved the
    # survivors — exact matchings run vs. sets retired without one.
    annotate(
        em_checked=len(checked),
        no_em=len(ledger) - len(checked),
        survivors=len(ledger),
    )
    return _final_entries(ledger, lower, exact, checked, k)


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
    heap: list[tuple[float, int]],
    ledger: _UpperBoundLedger,
    lower: dict[int, float],
    checked: set[int],
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    batch_size: int,
) -> list[int]:
    """Pick the next sets that genuinely need a graph matching.

    Applies, in upper-bound order: termination (the highest unchecked
    bound fell out of the top-k), the lazy ``UB < theta_lb`` discard, and
    the No-EM acceptance — exactly the order of Algorithm 2. Returns at
    most ``batch_size`` set ids for verification.
    """
    batch: list[int] = []
    while len(batch) < batch_size:
        set_id, upper = _peek_unchecked(heap, ledger, checked)
        if set_id is None:
            break
        if not config.exhaustive_verification:
            if upper < ledger.theta_ub():
                break  # every unchecked set is outside L_ub: phase complete
        heapq.heappop(heap)
        if not config.exhaustive_verification and upper < theta.value:
            stats.no_em_discarded += 1
            ledger.remove(set_id)
            lower.pop(set_id, None)
            continue
        if config.use_no_em and lower[set_id] >= ledger.theta_ub():
            stats.no_em_accepted += 1
            checked.add(set_id)
            continue
        # Batching several EMs is sound: theta_ub only decreases and
        # theta_lb only increases, so acceptances and discards made while
        # sibling verifications are in flight can never become invalid.
        batch.append(set_id)
    return batch


def _peek_unchecked(
    heap: list[tuple[float, int]],
    ledger: _UpperBoundLedger,
    checked: set[int],
) -> tuple[int | None, float]:
    """The alive, unchecked set with the largest current upper bound."""
    while heap:
        neg_upper, set_id = heap[0]
        if (
            set_id not in ledger
            or set_id in checked
            or ledger.value(set_id) != -neg_upper
        ):
            heapq.heappop(heap)
            continue
        return set_id, -neg_upper
    return None, 0.0


def _final_entries(
    ledger: _UpperBoundLedger,
    lower: dict[int, float],
    exact: dict[int, float],
    checked: set[int],
    k: int,
) -> list[VerifiedEntry]:
    """The final ``L_ub``: the k alive sets with the largest bounds.

    All of them are checked (that was the termination condition); ties at
    the k-th bound prefer checked sets, then lower set ids, making the
    output deterministic.
    """
    ranked = sorted(
        ledger.alive_ids(),
        key=lambda sid: (-ledger.value(sid), sid not in checked, sid),
    )
    entries = []
    for set_id in ranked[:k]:
        score = exact.get(set_id)
        entries.append(
            VerifiedEntry(
                set_id=set_id,
                score=score if score is not None else lower[set_id],
                exact=score is not None,
                lower_bound=lower[set_id],
                upper_bound=ledger.value(set_id),
            )
        )
    entries.sort(key=lambda e: (-e.score, e.set_id))
    return entries
