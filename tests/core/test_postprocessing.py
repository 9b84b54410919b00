"""Tests for Algorithm 2 (post-processing) on controlled inputs."""

import time

import numpy as np
import pytest

from repro.core import FilterConfig, SearchStats, ThetaLB, TopKList
from repro.core.bounds import Survivors
from repro.core.postprocessing import (
    VerifiedEntry,
    _final_entries,
    postprocess,
)
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel
from repro.errors import SearchTimeout
from repro.sim import CallableSimilarity
from repro.sim.base import SimilarityFunction
from tests.core.verify_oracle import _UpperBoundLedger, _select_batch


def survivor_arrays(bounds):
    """Survivors from ``bounds``, a map set_id -> (lower, upper)."""
    return Survivors(
        ids=np.array(list(bounds), dtype=np.int64),
        lower=np.array([lo for lo, _ in bounds.values()], dtype=np.float64),
        upper=np.array([up for _, up in bounds.values()], dtype=np.float64),
    )


def run_post(
    query,
    sets,
    sims,
    bounds,
    k=2,
    alpha=0.7,
    config=None,
    deadline=None,
    seed_theta=(),
):
    """``bounds`` maps set_id -> (lower, upper)."""
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    query = frozenset(query)
    survivors = survivor_arrays(bounds)
    llb = TopKList(k)
    theta = ThetaLB(llb)
    for set_id, (lo, _) in bounds.items():
        theta.offer(set_id, lo)
    for set_id, value in seed_theta:
        theta.offer(set_id, value)
    stats = SearchStats()
    stats.candidates = len(bounds)
    entries = postprocess(
        query,
        collection,
        survivors,
        sim,
        alpha,
        k,
        theta,
        stats,
        config or FilterConfig.koios(),
        deadline=deadline,
    )
    return entries, stats


class TestBasicVerification:
    def test_returns_topk_exact(self):
        sets = [{"a", "b"}, {"a"}, {"c"}]
        bounds = {0: (1.0, 2.0), 1: (1.0, 1.0), 2: (0.0, 0.5)}
        entries, stats = run_post(
            {"a", "b"}, sets, {}, bounds, k=2,
            config=FilterConfig.koios().without(use_no_em=False),
        )
        assert [e.set_id for e in entries] == [0, 1]
        assert entries[0].score == pytest.approx(2.0)
        assert entries[0].exact
        assert stats.consistency_ok()

    def test_empty_survivors(self):
        entries, _ = run_post({"a"}, [{"a"}], {}, {}, k=1)
        assert entries == []

    def test_fewer_survivors_than_k(self):
        sets = [{"a"}]
        entries, _ = run_post({"a"}, sets, {}, {0: (1.0, 1.0)}, k=5)
        assert len(entries) == 1


class TestNoEMFilter:
    def test_acceptance_without_matching(self):
        # Set 0's LB (2.0) >= theta_ub (the k-th largest UB with k=1 is
        # max UB = 2.0): accepted with zero Hungarian runs.
        sets = [{"a", "b"}, {"c"}]
        bounds = {0: (2.0, 2.0), 1: (0.1, 0.4)}
        entries, stats = run_post({"a", "b"}, sets, {}, bounds, k=1)
        assert stats.no_em_accepted == 1
        assert stats.em_full == 0
        assert entries[0].set_id == 0
        assert not entries[0].exact

    def test_disabled_no_em_forces_matching(self):
        sets = [{"a", "b"}, {"c"}]
        bounds = {0: (2.0, 2.0), 1: (0.1, 0.4)}
        entries, stats = run_post(
            {"a", "b"},
            sets,
            {},
            bounds,
            k=1,
            config=FilterConfig.koios().without(use_no_em=False),
        )
        assert stats.no_em_accepted == 0
        assert stats.em_full >= 1
        assert entries[0].exact

    def test_accepted_entry_reports_bounds(self):
        # Set 0's LB (1.5) beats theta_ub (the 2nd largest UB, 1.2), so
        # it is accepted carrying its refinement bounds, not a score.
        sets = [{"a", "b"}, {"a", "c"}]
        bounds = {0: (1.5, 2.0), 1: (0.5, 1.2)}
        entries, _ = run_post({"a", "b"}, sets, {}, bounds, k=2)
        entry = next(e for e in entries if e.set_id == 0)
        assert entry.lower_bound == pytest.approx(1.5)
        assert entry.upper_bound == pytest.approx(2.0)
        assert entry.score == pytest.approx(1.5)  # certified lower bound
        assert not entry.exact


class TestEarlyTermination:
    def test_hopeless_sets_terminated(self):
        # theta_lb = 2 (seeded); set 1's true score is 1.0 < 2 and its
        # loose UB (3.0) forces it into verification, which must abort.
        sets = [{"a", "b", "x"}, {"c", "y", "z"}]
        sims = {("a", "c"): 1.0}
        bounds = {0: (2.0, 2.5), 1: (1.0, 3.0)}
        entries, stats = run_post(
            {"a", "b"}, sets, sims, bounds, k=1,
            config=FilterConfig.koios().without(use_no_em=False),
        )
        assert stats.em_early_terminated == 1
        assert entries[0].set_id == 0

    def test_disabled_early_termination_runs_full(self):
        sets = [{"a", "b", "x"}, {"c", "y", "z"}]
        sims = {("a", "c"): 1.0}
        bounds = {0: (2.0, 2.5), 1: (1.0, 3.0)}
        entries, stats = run_post(
            {"a", "b"}, sets, sims, bounds, k=1,
            config=FilterConfig.koios().without(
                use_no_em=False, use_em_early_termination=False
            ),
        )
        assert stats.em_early_terminated == 0
        assert stats.em_full == 2


class TestExhaustiveVerification:
    def test_everything_verified(self):
        sets = [{"a"}, {"b"}, {"a", "b"}]
        bounds = {0: (1.0, 1.0), 1: (0.0, 1.0), 2: (2.0, 2.0)}
        entries, stats = run_post(
            {"a", "b"}, sets, {}, bounds, k=1,
            config=FilterConfig.baseline(),
        )
        assert stats.em_full == 3
        assert entries[0].set_id == 2


class _SeededDenseSim(SimilarityFunction):
    """A deterministic dense similarity over ``t<i>`` tokens.

    Every pair scores in [0.7, 1.0) from a seeded table, making the
    Hungarian matching of two large sets genuinely slow (many labeling
    updates) while the matrix itself builds in microseconds — the shape
    that isolates the in-matching deadline check.
    """

    def __init__(self, size: int, seed: int = 7) -> None:
        rng = np.random.default_rng(seed)
        table = 0.7 + 0.3 * rng.random((size, size))
        self._table = np.minimum(table, table.T)

    def _index(self, token: str) -> int:
        return int(token[1:])

    def score(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        return float(self._table[self._index(a), self._index(b)])

    def matrix(self, rows, cols):
        r = [self._index(t) for t in rows]
        c = [self._index(t) for t in cols]
        out = self._table[np.ix_(r, c)].astype(np.float64)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                if a == b:
                    out[i, j] = 1.0
        return out


def _slow_matching_inputs(num_candidates: int, side: int = 700):
    """One query and ``num_candidates`` disjoint large candidates whose
    verifications each take a macroscopic amount of time."""
    universe = 2 * side
    query = {f"t{i}" for i in range(0, side)}
    sets = [
        {f"t{i}" for i in range(side, side + side)}
        for _ in range(num_candidates)
    ]
    sim = _SeededDenseSim(universe + 1)
    collection = SetCollection(sets)
    survivors = survivor_arrays(
        {set_id: (0.0, float(side)) for set_id in range(num_candidates)}
    )
    return frozenset(query), collection, sim, survivors


def _run_slow_post(query, collection, sim, survivors, *, deadline=None):
    stats = SearchStats()
    stats.candidates = len(survivors)
    return postprocess(
        query,
        collection,
        survivors,
        sim,
        0.7,
        1,
        ThetaLB(TopKList(1)),
        stats,
        FilterConfig.koios().without(use_no_em=False),
        deadline=deadline,
    )


class TestDeadline:
    def test_expired_deadline_raises(self):
        sets = [{"a"}, {"b"}]
        bounds = {0: (0.5, 1.5), 1: (0.5, 1.5)}
        with pytest.raises(SearchTimeout):
            run_post(
                {"a", "b"}, sets, {}, bounds, k=1,
                deadline=time.perf_counter() - 1.0,
            )

    def test_deadline_aborts_inside_one_matching(self):
        """The regression the granularity fix pins: the deadline is
        re-read inside the Hungarian run (after every labeling update),
        so a single slow matching aborts promptly instead of completing
        and only then noticing the blown budget at the batch boundary."""
        inputs = _slow_matching_inputs(1)
        started = time.perf_counter()
        _run_slow_post(*inputs)
        full_run = time.perf_counter() - started
        assert full_run > 0.05, "calibration: matching must be slow"

        started = time.perf_counter()
        with pytest.raises(SearchTimeout):
            _run_slow_post(*inputs, deadline=time.perf_counter() + 0.01)
        aborted = time.perf_counter() - started
        assert aborted < full_run / 2, (aborted, full_run)

    def test_deadline_checked_without_early_termination(self):
        """Even with the Lemma-8 filter ablated the bound callable still
        carries the deadline (and still never prunes)."""
        query, collection, sim, survivors = _slow_matching_inputs(1)
        stats = SearchStats()
        stats.candidates = len(survivors)
        with pytest.raises(SearchTimeout):
            postprocess(
                query,
                collection,
                survivors,
                sim,
                0.7,
                1,
                ThetaLB(TopKList(1)),
                stats,
                FilterConfig.koios().without(
                    use_no_em=False, use_em_early_termination=False
                ),
                deadline=time.perf_counter() + 0.01,
            )


def ledger_of(bounds, k=2, lower=0.0):
    """An oracle ledger over ``{set id: upper bound}`` (one shared lower
    bound)."""
    count = len(bounds)
    return _UpperBoundLedger(
        Survivors(
            ids=np.fromiter(bounds, dtype=np.int64, count=count),
            lower=np.full(count, lower),
            upper=np.fromiter(bounds.values(), dtype=np.float64, count=count),
        ),
        k,
    )


def walk(ledger, **switches):
    """Drive ``_select_batch`` one set at a time with a zero
    ``theta_lb``; returns the set ids it handed out for verification,
    in order."""
    config = FilterConfig.koios().without(use_no_em=False, **switches)
    theta = ThetaLB(TopKList(1))
    handed = []
    while True:
        batch = _select_batch(ledger, {}, theta, SearchStats(), config, 1)
        if not batch:
            return handed
        handed.extend(ledger.ids[position] for position in batch)


class TestUpperBoundLedger:
    """The per-survivor walk the epoch walk is checked against
    (``tests/core/verify_oracle.py``)."""

    def test_theta_ub_with_fewer_than_k_alive(self):
        ledger = ledger_of({1: 0.9}, k=2)
        assert ledger.theta_ub() == 0.0
        ledger.remove(0.9)
        assert ledger.theta_ub() == 0.0
        assert len(ledger) == 0

    def test_duplicate_float_bounds_remove_one_instance(self):
        ledger = ledger_of({1: 0.5, 2: 0.5, 3: 0.5}, k=2)
        assert ledger.theta_ub() == 0.5
        ledger.remove(0.5)
        assert len(ledger) == 2
        assert ledger.theta_ub() == 0.5
        ledger.remove(0.5)
        assert ledger.theta_ub() == 0.0  # one alive < k

    def test_lower_to_with_duplicates_keeps_sorted_consistent(self):
        ledger = ledger_of({1: 0.8, 2: 0.8, 3: 0.6}, k=3)
        ledger.lower_to(0.8, 0.6)
        assert ledger.theta_ub() == 0.6
        ledger.lower_to(0.8, 0.1)
        assert ledger.theta_ub() == 0.1
        assert ledger._sorted == [0.1, 0.6, 0.6]

    def test_walk_order_is_bound_descending_then_id(self):
        ledger = ledger_of({7: 0.5, 2: 0.9, 5: 0.9, 1: 0.7}, k=4)
        assert ledger.ids == [2, 5, 1, 7]
        assert ledger.upper == [0.9, 0.9, 0.7, 0.5]
        assert walk(ledger) == [2, 5, 1, 7]
        assert ledger.visited == 4

    def test_walk_visits_a_lowered_set_once(self):
        """A matched set's bound moves down inside ``theta_ub`` only:
        the walk never meets the set again at its new bound (the heap
        this replaced re-queued nothing either — it skipped stale
        entries)."""
        ledger = ledger_of({1: 0.9, 2: 0.7, 3: 0.5}, k=2)
        config = FilterConfig.koios().without(use_no_em=False)
        theta = ThetaLB(TopKList(1))

        def handed():
            batch = _select_batch(ledger, {}, theta, SearchStats(), config, 1)
            return [ledger.ids[position] for position in batch]

        assert handed() == [1]
        ledger.lower_to(0.9, 0.2)  # set 1 matched: exact score 0.2
        assert ledger.theta_ub() == 0.5
        assert handed() == [2]
        assert handed() == [3]
        assert handed() == []
        assert ledger.visited == 3

    def test_walk_stops_below_theta_ub(self):
        """Termination: the highest unvisited bound fell out of the
        top-k, so nothing further is handed out or counted visited."""
        ledger = ledger_of({1: 0.9, 2: 0.7, 3: 0.5, 4: 0.4}, k=2)
        assert walk(ledger) == [1, 2]
        assert ledger.visited == 2
        assert len(ledger) == 4  # the unvisited stay alive
        ledger = ledger_of({1: 0.9, 2: 0.7, 3: 0.5}, k=2)
        assert walk(ledger, exhaustive_verification=True) == [1, 2, 3]
        assert ledger.visited == 3


def entry(set_id, score, upper, exact=True):
    return VerifiedEntry(
        set_id=set_id,
        score=score,
        exact=exact,
        lower_bound=score,
        upper_bound=upper,
    )


class TestFinalEntriesTieBreaking:
    def test_kth_bound_ties_prefer_lower_ids(self):
        kept = {
            3: entry(3, 0.8, 0.8),
            1: entry(1, 0.3, 0.8, exact=False),
            2: entry(2, 0.4, 0.8, exact=False),
        }
        # Sets 1 and 2 are chosen (3 loses the tie on id), then ranked
        # by score: 2 (0.4) ahead of 1 (0.3).
        entries = _final_entries(kept, k=2)
        assert [e.set_id for e in entries] == [2, 1]
        entries = _final_entries(kept, k=3)
        assert [e.set_id for e in entries] == [3, 2, 1]
        assert entries[0].exact and not entries[1].exact

    def test_output_sorted_by_score_then_id(self):
        kept = {sid: entry(sid, 0.9, 0.9) for sid in (5, 2, 7)}
        entries = _final_entries(kept, k=3)
        assert [e.set_id for e in entries] == [2, 5, 7]


class TestStatsAttribution:
    def test_every_survivor_attributed(self):
        sets = [{"a", "b"}, {"a"}, {"b"}, {"c"}, {"a", "c"}]
        sims = {("b", "c"): 0.8}
        bounds = {
            0: (2.0, 2.0),
            1: (1.0, 1.3),
            2: (1.0, 1.8),
            3: (0.8, 0.9),
            4: (1.0, 1.9),
        }
        _, stats = run_post({"a", "b"}, sets, sims, bounds, k=2)
        accounted = (
            stats.no_em
            + stats.em_early_terminated
            + stats.em_full
        )
        assert accounted == len(bounds)
