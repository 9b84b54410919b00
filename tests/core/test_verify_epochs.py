"""The epoch walk against the per-survivor walk it replaced.

``postprocess`` walks Algorithm 2 one ``theta_lb`` epoch at a time with
array masks; ``tests/core/verify_oracle.py`` keeps the walk it
replaced, which took one interpreted step per survivor. Both run on the
same random survivors, and every observable must agree: the counters,
the sets the walk kept and the entries it returned, the solver entries
in the order they were made, and the full sequence of ``theta_lb``
offers with their return values and the final ``theta.value``.

A scripted verifier stands in for the columnar one. It hands the walk
each survivor's label sum (``+inf`` for a drift-guard fallback) and
answers a solver entry the way the real verifier does: the Lemma-8
check on entry against the live threshold, then the scripted outcome —
pruned with or without labeling updates, or a completed matching whose
score is below, at or above the set's bound — possibly raising the
shared threshold on the way, as another shard would. Bounds, scores
and thresholds come from a dyadic grid and some label sums sit exactly
at ``grid - _EPS``, so the ties the strict comparisons hinge on occur;
``TestTieCoverage`` checks they do.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import FilterConfig
from repro.core import postprocessing
from repro.core.bounds import Survivors
from repro.core.stats import SearchStats
from repro.core.topk import GlobalThreshold, ThetaLB, TopKList
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel
from repro.matching.hungarian import _EPS, MatchingResult
from repro.sim import CallableSimilarity
from tests.core import verify_oracle

GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
SIMILARITIES = (1.0, 0.875, 0.75, 0.5)
SHARED_LEVELS = (None, None, 0.0, 0.5, 1.0, 1.5, 2.0)
#: The final-``L_ub`` selection both walks share (patched per run to see
#: what each kept).
FINAL_ENTRIES = postprocessing._final_entries
COUNTERS = (
    "no_em_accepted",
    "no_em_discarded",
    "em_early_terminated",
    "em_initial_pruned",
    "em_full",
    "em_label_updates",
)


class LoggedTheta(ThetaLB):
    """``ThetaLB`` recording every offer and what it returned."""

    def __init__(self, k: int, shared: float | None) -> None:
        super().__init__(
            TopKList(k), None if shared is None else GlobalThreshold(shared)
        )
        self.offers: list[tuple[int, float, bool]] = []

    def offer(self, set_id, lower_bound):
        changed = super().offer(set_id, lower_bound)
        self.offers.append((set_id, lower_bound, changed))
        return changed


class ScriptedVerifier:
    """Answers solver entries from a per-set script.

    ``script[set_id]`` is ``(label sum, fallback, outcome, raise_to)``:
    ``outcome`` is ``("pruned", label updates)`` or ``("completed",
    score)``; ``raise_to`` is a level the shared threshold is raised to
    during the entry, or None.
    """

    def __init__(self, script, theta: ThetaLB, witnesses: set) -> None:
        self.script = script
        self.theta = theta
        self.witnesses = witnesses
        self.entries: list[int] = []
        self.matmul_cells = self.matmul_flops = 0

    def prepare(self, survivor_ids, cache_by_token):
        return np.array(
            [
                np.inf if self.script[i][1] else self.script[i][0]
                for i in survivor_ids.tolist()
            ]
        )

    def match(self, set_id, bound):
        label, fallback, outcome, raise_to = self.script[set_id]
        threshold = None if bound is None else bound()
        if threshold is not None:
            if label == threshold - _EPS:
                self.witnesses.add("label sum == theta - EPS")
            if label < threshold - _EPS:
                return MatchingResult(score=0.0, pruned=True, label_sum=label)
        self.entries.append(set_id)
        if raise_to is not None and self.theta.shared is not None:
            before = self.theta.value
            self.theta.shared.raise_to(raise_to)
            if self.theta.value != before:
                self.witnesses.add(f"shared raised by a {outcome[0]} entry")
        kind, value = outcome
        if kind == "pruned":
            return MatchingResult(
                score=0.0, pruned=True, label_sum=label, label_updates=value
            )
        return MatchingResult(score=value, label_sum=label, label_updates=2)

    @property
    def fallback_count(self):
        return sum(fallback for _, fallback, _, _ in self.script.values())

    def nbytes(self):
        return 0


def make_case(seed: int) -> dict:
    """Random survivors, their script, a configuration and a theta."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(8)]
    query = sorted(set(rng.choice(vocab, size=int(rng.integers(1, 5)))))
    sims = {
        (a, b): float(rng.choice(SIMILARITIES))
        for a in vocab
        for b in vocab
        if a < b and rng.random() < 0.3
    }
    count = int(rng.integers(0, 30))
    sets = [
        frozenset(rng.choice(vocab, size=int(rng.integers(1, 5))))
        for _ in range(count + int(rng.integers(0, 4)))
    ]
    ids = np.sort(rng.choice(len(sets), size=count, replace=False))
    upper = rng.choice(GRID, size=count)
    # A third of the sets have LB == UB, the rest some grid step below.
    lower = np.where(
        rng.random(count) < 0.33,
        upper,
        np.maximum(0.0, upper - rng.choice(GRID, size=count)),
    )
    script = {}
    for set_id, bound in zip(ids.tolist(), upper.tolist()):
        draw = rng.random()
        if draw < 0.3:
            label = float(rng.choice(GRID)) - _EPS
        elif draw < 0.9:
            label = float(rng.choice(GRID))
        else:
            label = float(rng.choice(GRID)) + 1.0
        if rng.random() < 0.5:
            outcome = ("pruned", int(rng.choice([0, 1, 3])))
        else:
            step = float(rng.choice([-0.5, -0.25, 0.0, 0.0, 0.5]))
            outcome = ("completed", max(0.0, bound + step))
        raise_to = float(rng.choice(GRID)) if rng.random() < 0.1 else None
        script[set_id] = (label, bool(rng.random() < 0.1), outcome, raise_to)
    config = FilterConfig.koios().without(
        use_no_em=bool(rng.integers(2)),
        use_em_early_termination=bool(rng.integers(2)),
        exhaustive_verification=bool(rng.integers(2)),
    )
    return {
        "collection": SetCollection(sets) if sets else None,
        "sim": CallableSimilarity(PinnedSimilarityModel(sims)),
        "query": frozenset(query),
        "survivors": Survivors(
            ids=ids.astype(np.int64), lower=lower, upper=upper
        ),
        "script": script,
        "verifier": bool(rng.random() < 0.8),
        "config": config,
        "k": int(rng.integers(1, count + 3)),
        "shared": SHARED_LEVELS[int(rng.integers(len(SHARED_LEVELS)))],
        # Lower bounds refinement offered to L_lb before the phase.
        "seeded": [
            (set_id, value)
            for set_id, value in zip(ids.tolist(), lower.tolist())
            if rng.random() < 0.6
        ],
    }


def run(case, walk, witnesses):
    """One walk over ``case``; everything the two walks must agree on."""
    theta = LoggedTheta(case["k"], case["shared"])
    for set_id, value in case["seeded"]:
        theta.offer(set_id, value)
    del theta.offers[:]
    verifier = None
    if case["verifier"]:
        verifier = ScriptedVerifier(case["script"], theta, witnesses)
    stats = SearchStats()
    kept = []

    def final_entries(entries, k):
        kept.append(dict(entries))
        return FINAL_ENTRIES(entries, k)

    module = postprocessing if walk is postprocessing.postprocess else (
        verify_oracle
    )
    with mock.patch.object(module, "_final_entries", final_entries):
        entries = walk(
            case["query"],
            case["collection"],
            case["survivors"],
            case["sim"],
            0.4,
            case["k"],
            theta,
            stats,
            case["config"],
            sim_cache={},
            verifier=verifier,
        )
    return (
        {name: getattr(stats, name) for name in COUNTERS},
        kept,
        entries,
        None if verifier is None else verifier.entries,
        theta.offers,
        theta.value,
    )


def run_both(case, witnesses=None):
    witnesses = set() if witnesses is None else witnesses
    oracle = run(case, verify_oracle.postprocess, witnesses)
    epochs = run(case, postprocessing.postprocess, set())
    return oracle, epochs


class TestEpochWalkEqualsPerSurvivorWalk:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    # Tied upper bounds, LB == UB and a No-EM accept.
    @example(seed=0)
    # A solver entry that prunes raises the shared threshold.
    @example(seed=13)
    # A label sum exactly at theta - EPS meets the Lemma-8 check.
    @example(seed=16)
    # A completed matching raises the shared threshold.
    @example(seed=53)
    def test_same_counters_entries_and_offers(self, seed):
        oracle, epochs = run_both(make_case(seed))
        for got, want, what in zip(
            epochs,
            oracle,
            ("counters", "kept", "entries", "solver entries", "offers",
             "theta"),
        ):
            assert got == want, what

    def test_k_far_above_the_survivor_count(self):
        """The walk's working arrays are sized by the survivors, not by
        ``k``."""
        case = make_case(0)
        assert len(case["survivors"]) > 0
        case["k"] = 10**15
        oracle, epochs = run_both(case)
        assert epochs == oracle

    def test_every_survivor_is_accounted_for(self):
        for seed in range(50):
            case = make_case(seed)
            counters = run_both(case)[1][0]
            assert (
                counters["no_em_accepted"]
                + counters["no_em_discarded"]
                + counters["em_early_terminated"]
                + counters["em_full"]
                == len(case["survivors"])
            ), seed


def witnesses_of(case) -> set[str]:
    """The ties and paths a case puts in front of the walks."""
    witnesses: set[str] = set()
    run_both(case, witnesses)
    survivors = case["survivors"]
    upper = survivors.upper
    if len(np.unique(upper)) < len(upper):
        witnesses.add("tied upper bounds")
    if (survivors.lower == upper).any():
        witnesses.add("LB == UB")
    if case["verifier"] and any(
        script[1] for script in case["script"].values()
    ):
        witnesses.add("fallback survivors")
    if not case["verifier"] and len(survivors):
        witnesses.add("no verifier")
    if case["k"] == 1:
        witnesses.add("k = 1")
    if case["k"] > len(survivors):
        witnesses.add("k above the survivor count")
    if case["shared"]:
        witnesses.add("shared raised before the call")
    counters = run_both(case)[1][0]
    if counters["no_em_accepted"]:
        witnesses.add("No-EM accept")
    if counters["em_initial_pruned"] and case["verifier"]:
        witnesses.add("Lemma-8 retirement")
    return witnesses


class TestTieCoverage:
    def test_cases_reach_every_tie_and_configuration(self):
        seen = set()
        filters = set()
        for seed in range(300):
            case = make_case(seed)
            config = case["config"]
            filters.add((
                config.use_no_em,
                config.use_em_early_termination,
                config.exhaustive_verification,
            ))
            seen |= witnesses_of(case)
        assert seen == {
            "label sum == theta - EPS",
            "shared raised by a pruned entry",
            "shared raised by a completed entry",
            "tied upper bounds",
            "LB == UB",
            "fallback survivors",
            "no verifier",
            "k = 1",
            "k above the survivor count",
            "shared raised before the call",
            "No-EM accept",
            "Lemma-8 retirement",
        }
        assert len(filters) == 8

    def test_pinned_examples_reach_their_ties(self):
        assert {"tied upper bounds", "LB == UB", "No-EM accept"} <= (
            witnesses_of(make_case(0))
        )
        assert "shared raised by a pruned entry" in witnesses_of(
            make_case(13)
        )
        assert "label sum == theta - EPS" in witnesses_of(make_case(16))
        assert "shared raised by a completed entry" in witnesses_of(
            make_case(53)
        )


class TestThetaUbIsIndexArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(
        upper=st.lists(st.sampled_from(GRID), max_size=40).map(
            lambda bounds: sorted(bounds, reverse=True)
        ),
        kept=st.lists(st.sampled_from(GRID + (0.25, 3.5)), max_size=30),
        k=st.integers(1, 40),
        data=st.data(),
    )
    def test_kth_largest_of_kept_and_unvisited(self, upper, kept, k, data):
        """``_theta_ub`` at every position of a window is bitwise the
        k-th largest of the kept bounds and the unvisited ones, and 0.0
        where fewer than k sets are alive."""
        n = len(upper)
        start = data.draw(st.integers(0, n))
        stop = data.draw(st.integers(start, n))
        bounds = np.array(upper, dtype=float)
        kept_bounds = np.sort(np.array(kept, dtype=float))[-k:]
        got = postprocessing._theta_ub(
            bounds, -bounds, start, stop, kept_bounds, k
        )
        for offset, position in enumerate(range(start, stop)):
            alive = sorted(kept + upper[position:], reverse=True)
            want = alive[k - 1] if len(alive) >= k else 0.0
            assert got[offset] == want, (position, alive)

    def test_keep_holds_the_k_largest_ascending(self):
        kept = np.zeros(0)
        for bounds in ([2.0], [0.5, 1.0, 3.0], [1.0], [0.25, 2.5]):
            kept = postprocessing._keep(kept, np.array(bounds), 4)
        assert kept.tolist() == [1.0, 2.0, 2.5, 3.0]
        assert postprocessing._keep(kept, 1.5, 4).tolist() == [
            1.5, 2.0, 2.5, 3.0
        ]


class CountingNumpy:
    """Stands in for ``numpy`` inside the walk, counting the calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name):
        value = getattr(np, name)
        if not callable(value) or isinstance(value, type):
            return value

        def counted(*args, **kwargs):
            self.calls += 1
            return value(*args, **kwargs)

        return counted


def walk_work(n: int, k: int) -> tuple[int, int]:
    """NumPy calls and windows the walk takes over ``n`` survivors.

    Every other survivor has ``LB == UB`` and is a No-EM accept, which
    ends its epoch; the ones between reach the solver and are pruned.
    """
    upper = np.arange(n, 0, -1, dtype=float)
    lower = np.where(np.arange(n) % 2 == 0, upper, 0.0)
    pruned = MatchingResult(score=0.0, pruned=True, label_sum=0.0,
                            label_updates=1)
    counting = CountingNumpy()
    with mock.patch.object(postprocessing, "np", counting):
        _, visited, _, windows = postprocessing._walk(
            np.arange(n, dtype=np.int64),
            lower,
            upper,
            np.full(n, np.inf),
            k,
            ThetaLB(TopKList(k)),
            SearchStats(),
            FilterConfig.koios(),
            lambda set_id: pruned,
            None,
        )
    # The k-th largest alive bound overtakes the last one or two.
    assert visited >= n - 2
    return counting.calls, windows


class TestWalkWorkIsLinear:
    """The walk's cost per window does not grow with the kept sets, so
    its total work grows linearly in the survivors even when most of
    them end an epoch."""

    def test_k_above_the_survivor_count(self):
        small, _ = walk_work(1000, 2000)
        large, windows = walk_work(4000, 8000)
        # theta_ub is 0.0 and every survivor is accepted: the runs fill
        # whole windows.
        assert windows <= 4000 // postprocessing.MIN_WINDOW
        assert large <= 5 * small

    def test_k_at_half_the_survivor_count(self):
        small, small_windows = walk_work(1000, 500)
        large, large_windows = walk_work(4000, 2000)
        # About one epoch per two survivors, each a window of its own;
        # a window costs O(log k) calls, so 4x the survivors may cost
        # 4 * log(2000) / log(500) ~ 4.9x — and would cost 16x if a
        # window paid for every kept bound.
        assert large_windows >= 4 * small_windows - 4
        assert large <= 6 * small
