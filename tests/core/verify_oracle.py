"""The per-survivor verification walk, kept as the epoch walk's oracle.

This is the loop :func:`repro.core.postprocessing.postprocess` ran
before the walk went one ``theta_lb`` epoch at a time, unchanged apart
from the thread pool it no longer has: a ``bisect`` ledger of the alive
upper bounds, ``_select_batch`` handing out one walk position at a
time, and one ``verify`` → ``apply_em_result`` round trip per survivor
that reaches the solver step — including the survivors the verifier's
Lemma-8 initial check retires. It takes the arguments the production
function takes and returns the same entries.
"""

from __future__ import annotations

import bisect
import time
from typing import Callable, Mapping

import numpy as np

from repro.core.bounds import Survivors
from repro.core.config import FilterConfig
from repro.core.postprocessing import (
    VerifiedEntry,
    _deadline_bound,
    _final_entries,
    cache_view,
    index_cache_by_token,
)
from repro.core.semantic_overlap import semantic_overlap_matching
from repro.core.stats import SearchStats
from repro.core.topk import ThetaLB
from repro.datasets.collection import SetCollection
from repro.errors import SearchTimeout
from repro.sim.base import SimilarityFunction
from repro.utils.memory import FLOAT_BYTES, INT_BYTES, container_bytes


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
    """Run Algorithm 2 one survivor at a time (the production signature)."""
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

    while True:
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchTimeout("post-processing exceeded its budget")
        batch = _select_batch(ledger, kept, theta, stats, config, 1)
        if not batch:
            break
        for position in batch:
            apply_em_result(*verify(position))

    # Sets still alive but never examined when the phase terminated were
    # resolved without any matching; the paper's per-filter tables count
    # them in the No-EM column, and so do we.
    unvisited = len(ids) - ledger.visited
    stats.no_em_discarded += unvisited
    if verifier is not None:
        verifier_bytes = verifier.nbytes()
        stats.memory.record("verify_weight_block", verifier_bytes)
        stats.verify_matmul_cells += verifier.matmul_cells
        stats.verify_matmul_flops += verifier.matmul_flops
        stats.verify_bytes_scanned += verifier_bytes
        stats.verify_fallbacks += verifier.fallback_count
    return _final_entries(kept, k)


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
            batch.append(position)
        position += 1
    ledger.visited = position
    return batch
