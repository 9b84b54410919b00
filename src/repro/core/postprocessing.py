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

The walk goes one ``theta_lb`` epoch at a time over the ``(-UB, id)``
order (an unchecked set's bound never changes in this phase, so it is
one sort). Inside a window of positions ``theta_lb`` and the kept sets'
bounds are fixed, so every decision is an array mask and Python runs
only where it must. Four facts make that exact:

* **theta_ub is index arithmetic.** With ``K`` the bounds of the sets
  visited and kept (No-EM accepts; completed matchings at their score
  if below their bound), the alive multiset before position ``p`` is
  ``K ∪ upper[p:]`` — discards and retirements only remove visited
  positions, so they never change a later ``theta_ub``. Its k-th
  largest element is ``max over i <= min(|K|, k)`` of
  ``min(K_desc[i-1], upper[p+k-i-1])``, and ``0.0`` when ``|K| + n - p
  < k``; across a window it is one merge (see :func:`_theta_ub`),
  whatever ``|K|`` is. It only selects bounds, so it is bitwise exact.
* **One precedence order, as masks.** Terminate (gated and ``UB <
  theta_ub``), discard (gated and ``UB < theta_lb``), No-EM accept
  (``LB >= theta_ub``), Lemma-8 retirement (early termination on and
  the initial label sum below ``theta_lb - _EPS``, the solver's own
  entry check), else a solver entry. ``exhaustive_verification`` turns
  the gate off, ``use_no_em`` and ``use_em_early_termination`` their
  masks; discards and retirements are committed as counts.
* **When an epoch ends.** At a completed matching or a run of No-EM
  accepts (``K`` and maybe ``theta_lb`` change; an accept keeps its
  bound alive, so the next position sees the same ``theta_ub``). A
  solver entry that prunes changes neither, so the walk stays in its
  window unless ``theta.value`` moved — another shard raised it.
* **One path for every configuration.** Survivors without a batched
  label sum — every survivor when the similarity has no embedding
  matrix, the drift guard's fallbacks — carry ``+inf`` and always reach
  the solver.

Solver entries run one at a time against the live threshold, in walk
order, so the ``theta.offer`` calls — and with them the ``theta_lb``
trajectory, counters and entries — are those of the per-survivor walk
kept in ``tests/core/verify_oracle.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core.bounds import Survivors
from repro.core.config import FilterConfig
from repro.core.semantic_overlap import semantic_overlap_matching
from repro.core.stats import SearchStats
from repro.core.topk import ThetaLB
from repro.datasets.collection import SetCollection
from repro.errors import SearchTimeout
from repro.matching.hungarian import _EPS, MatchingResult
from repro.obs import annotate
from repro.sim.base import SimilarityFunction

#: Walk positions per window: from ``MIN_WINDOW``, doubling while they
#: end no epoch, up to ``MAX_WINDOW`` between two deadline polls.
MIN_WINDOW = 64
MAX_WINDOW = 4096


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


def postprocess(
    query: frozenset[str],
    collection: SetCollection,
    survivors: Survivors,
    sim: SimilarityFunction,
    alpha: float,
    k: int,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    *,
    sim_cache: Mapping[tuple[str, str], float] | None = None,
    cache_by_token: dict[str, list[tuple[str, float]]] | None = None,
    deadline: float | None = None,
    verifier=None,
) -> list[VerifiedEntry]:
    """Run Algorithm 2 over one partition's surviving candidates.

    Parameters
    ----------
    survivors:
        What refinement handed over: the ids, lower bounds and frozen
        upper bounds of the candidates it did not prune.
    cache_by_token:
        The ``sim_cache`` already grouped by vocabulary token (see
        :func:`index_cache_by_token`). The search facade groups the
        full stream cache once per search and shares it across
        partitions; when omitted it is derived from ``sim_cache`` here.
    deadline:
        Absolute ``time.perf_counter()`` deadline; exceeding it raises
        :class:`~repro.errors.SearchTimeout` (the facade converts that
        into a partial, flagged result — the paper's "timed-out query").
        The walk polls it once per window, and the solver re-reads it
        with its bound after every labeling update, so a single slow
        Hungarian run aborts promptly instead of overshooting the budget.
    verifier:
        Optional :class:`~repro.core.fastpath_verify.ColumnarVerifier`:
        its batched pass supplies the initial label sums the walk retires
        survivors from, and it answers each solver entry from its shared
        weight block instead of per-candidate ``cache_view`` +
        ``build_graph`` calls. The walk is the same either way, so both
        verification paths return bitwise-identical entries.

    Returns the partition's (at most k) result sets in descending
    score/bound order.
    """
    if not len(survivors):
        return []

    order = np.lexsort((survivors.ids, -survivors.upper))
    ids = survivors.ids[order]
    lower = survivors.lower[order]
    upper = survivors.upper[order]
    if cache_by_token is None:
        cache_by_token = index_cache_by_token(sim_cache)
    if verifier is not None:
        label_sums = verifier.prepare(ids, cache_by_token)
    else:
        label_sums = np.full(ids.shape[0], np.inf)
    stats.memory.record(
        "postproc_upper_bounds",
        ids.nbytes + lower.nbytes + upper.nbytes + label_sums.nbytes,
    )

    bound_reader: Callable[[], float] | None = None
    if config.use_em_early_termination:
        bound_reader = lambda: theta.value  # noqa: E731 — live threshold
    if deadline is not None:
        bound_reader = _deadline_bound(bound_reader, deadline)

    def verify(set_id: int) -> MatchingResult:
        """One Hungarian run against the live threshold."""
        if verifier is not None:
            return verifier.match(set_id, bound_reader)
        result, _, _ = semantic_overlap_matching(
            query,
            collection[set_id],
            sim,
            alpha,
            cached_scores=cache_view(cache_by_token, collection[set_id]),
            bound=bound_reader,
        )
        return result

    kept, visited, epochs, windows = _walk(
        ids, lower, upper, label_sums, k, theta, stats, config, verify,
        deadline,
    )

    # Sets still alive but never examined when the phase terminated were
    # resolved without any matching; the paper's per-filter tables count
    # them in the No-EM column, and so do we.
    unvisited = ids.shape[0] - visited
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
    # survivors — exact matchings run vs. sets retired without one — and
    # the epochs and windows the walk took.
    annotate(
        em_checked=len(kept),
        no_em=unvisited,
        survivors=len(kept) + unvisited,
        verify_epochs=epochs,
        verify_windows=windows,
    )
    return _final_entries(kept, k)


def _walk(
    ids: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    label_sums: np.ndarray,
    k: int,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    verify: Callable[[int], MatchingResult],
    deadline: float | None,
) -> tuple[dict[int, VerifiedEntry], int, int, int]:
    """Walk the survivors in ``(-UB, id)`` order, a window at a time.

    Returns the kept sets as the entries they leave the phase with, the
    number of walk positions visited, and the epochs and windows taken.
    """
    n = ids.shape[0]
    gated = not config.exhaustive_verification
    negated = -upper
    kept: dict[int, VerifiedEntry] = {}
    kept_bounds = np.zeros(0)  # the k largest bounds in K, ascending
    start = epochs = windows = 0
    window = MIN_WINDOW
    new_epoch = True
    while start < n:
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchTimeout("post-processing exceeded its budget")
        epochs += new_epoch
        new_epoch = False
        windows += 1
        stop = min(start + window, n)
        theta_ub = _theta_ub(upper, negated, start, stop, kept_bounds, k)
        threshold = theta.value
        terminate = gated & (upper[start:stop] < theta_ub)
        discard = gated & (upper[start:stop] < threshold)
        halt = terminate | ~discard
        if config.use_em_early_termination:
            halt &= terminate | (label_sums[start:stop] >= threshold - _EPS)
        if config.use_no_em:
            halt |= ~discard & (lower[start:stop] >= theta_ub)
        # Positions before ``cut`` are visited: the halts one by one, the
        # rest as discards and Lemma-8 retirements.
        cut = stop - start
        handled = 0
        for offset in np.flatnonzero(halt).tolist():
            position = start + offset
            if terminate[offset]:
                cut = offset
                break  # every unchecked set is outside L_ub
            if config.use_no_em and lower[position] >= theta_ub[offset]:
                # theta_ub holds along a run of accepts, and so do the
                # terminate and discard tests: one mask takes the run.
                floor = theta_ub[offset]
                run = lower[position:stop] >= floor
                if gated:
                    run &= upper[position:stop] >= max(floor, threshold)
                length = run.size if run.all() else int(run.argmin())
                end = position + length
                for set_id, score, bound in zip(
                    ids[position:end].tolist(),
                    lower[position:end].tolist(),
                    upper[position:end].tolist(),
                ):
                    kept[set_id] = VerifiedEntry(
                        set_id, score, False, score, bound
                    )
                stats.no_em_accepted += length
                kept_bounds = _keep(kept_bounds, upper[position:end][::-1], k)
                handled += length
                cut = offset + length
            else:
                handled += 1
                set_id = int(ids[position])
                result = verify(set_id)
                stats.em_label_updates += result.label_updates
                if result.pruned:
                    stats.em_early_terminated += 1
                    if not result.label_updates:
                        stats.em_initial_pruned += 1
                    if theta.value == threshold:
                        continue  # theta_lb and K unchanged: same window
                else:
                    stats.em_full += 1
                    score = result.score
                    bound = min(float(upper[position]), score)
                    kept[set_id] = VerifiedEntry(
                        set_id, score, True, score, bound
                    )
                    kept_bounds = _keep(kept_bounds, bound, k)
                    theta.offer(set_id, score)
                cut = offset + 1
            new_epoch = True
            break
        discarded = int(np.count_nonzero(discard[:cut]))
        retired = cut - discarded - handled
        stats.no_em_discarded += discarded
        stats.em_early_terminated += retired
        stats.em_initial_pruned += retired
        if cut < stop - start and not new_epoch:
            return kept, start + cut, epochs, windows
        start += cut
        grown = max(MIN_WINDOW, 2 * cut) if new_epoch else 2 * window
        window = min(MAX_WINDOW, grown)
    return kept, n, epochs, windows


def _theta_ub(
    upper: np.ndarray, negated: np.ndarray, start: int, stop: int,
    kept_bounds: np.ndarray, k: int,
) -> np.ndarray:
    """``theta_ub`` before each walk position in ``[start, stop)``.

    ``kept_bounds`` holds the k largest of ``K``, ascending; ``negated``
    is ``-upper``, ascending. By position ``start + d`` the walk took the
    d largest unvisited bounds out of ``M = K ∪ upper[start:]``, so the
    k-th largest alive bound is M's ``(k + d)``-th, or ``K``'s k-th if
    larger: one merge of at most ``w`` kept and ``w`` unvisited bounds
    from where a binary search over ``K`` places M's rank k. ``0.0``
    where fewer than k sets are alive.
    """
    n = upper.shape[0]
    m = kept_bounds.shape[0]
    width = stop - start
    theta_ub = np.zeros(width)
    if m + n - start < k:
        return theta_ub
    # ``taken`` kept bounds are among M's k - 1 largest (kept first on
    # ties): kept bound ``i`` ranks i plus the unvisited bounds above it.
    rank = k - 1
    taken, hi = 0, min(m, rank)
    while taken < hi:
        mid = (taken + hi) // 2
        above = int(np.searchsorted(negated, -kept_bounds[m - 1 - mid]))
        if mid + max(0, above - start) >= rank:
            hi = mid
        else:
            taken = mid + 1
    first = start + rank - taken
    ranks = np.sort(
        np.concatenate([
            kept_bounds[max(0, m - taken - width):m - taken],
            upper[first:first + width][::-1],
        ]),
        kind="stable",  # two ascending runs: one merge
    )[::-1][:width]
    theta_ub[:ranks.size] = ranks
    if m == k:
        np.maximum(theta_ub, kept_bounds[0], out=theta_ub)
    return theta_ub


def _keep(kept_bounds: np.ndarray, bounds, k: int) -> np.ndarray:
    """Merge ascending ``bounds`` into ``kept_bounds``, keeping the k
    largest (the only ones a k-th largest can be)."""
    merged = np.sort(  # two ascending runs: one merge
        np.concatenate([kept_bounds, np.atleast_1d(bounds)]), kind="stable"
    )
    return merged[max(0, merged.shape[0] - k):]


def _deadline_bound(
    base: Callable[[], float] | None, deadline: float
) -> Callable[[], float | None]:
    """Wrap the early-termination bound with the phase deadline.

    The solver re-reads its bound after every labeling update, so
    checking the clock there bounds how far a single matching can
    overshoot the budget. Returning ``None`` (no early termination
    configured) keeps the solver's pruning behaviour unchanged; the
    wrapper only adds the timeout side-channel.
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
