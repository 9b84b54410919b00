"""The epoch replay against the per-event replay it replaced.

``refine_columnar`` settles the pruning schedule one ``theta_lb`` epoch
at a time with array operations; ``tests/core/replay_oracle.py`` keeps
the loop it replaced, which took one interpreted step per event. On
random small corpora and streams both replay the log of the *real*
trajectory phase, and every observable must agree: the candidate state
table, the four pruning counters, the final ``L_lb`` and the full
sequence of ``theta_lb`` offers with their return values.

Similarities come from a coarse dyadic grid, so scores and thresholds
are exact binary fractions and the float ties the strict comparisons
hinge on — ``S == theta - m*s``, a bound equal to the ``L_lb`` bottom,
a state with ``m = 0`` — occur; ``TestTieCoverage`` checks they do.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core import FilterConfig
from repro.core import fastpath
from repro.core.fastpath import ColumnarPartition
from repro.core.stats import SearchStats
from repro.core.topk import GlobalThreshold, ThetaLB, TopKList
from repro.datasets import SetCollection
from repro.index import InvertedIndex, MaterializedTokenStream, token_table_for
from tests.core.replay_oracle import _replay as per_event_replay

SIMILARITIES = (1.0, 0.875, 0.75, 0.625, 0.5, 0.375)
SHARED_LEVELS = (None, None, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
BLOCK_SIZES = (1, 2, 3, 7, fastpath.BLOCK_SIZE)
COUNTERS = (
    "candidates", "pruned_first_sight", "pruned_bucket", "bucket_moves",
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


def make_case(seed: int) -> dict:
    """A random corpus, query, descending stream and configuration."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(int(rng.integers(3, 14)))]
    sets = []
    for _ in range(int(rng.integers(1, 25))):
        size = int(rng.integers(1, min(len(vocab), 8) + 1))
        sets.append(frozenset(rng.choice(vocab, size=size, replace=False)))
    collection = SetCollection(sets)
    vocab = sorted(collection.vocabulary)
    pool = vocab + ["stranger"]
    query = sorted(set(rng.choice(pool, size=int(rng.integers(1, 7)))))
    tuples = []
    for q_token in query:
        if q_token in collection.vocabulary and rng.random() < 0.8:
            tuples.append((q_token, q_token, 1.0))  # the self-match rule
        for token in pool:
            if token != q_token and rng.random() < 0.35:
                tuples.append(
                    (q_token, token, float(rng.choice(SIMILARITIES)))
                )
    # Descending similarity; equal ones in a random order.
    tuples = [tuples[i] for i in rng.permutation(len(tuples))]
    tuples.sort(key=lambda entry: -entry[2])
    config = FilterConfig.koios(
        iub_mode=str(rng.choice(["paper", "safe"]))
    ).without(
        use_first_sight_ub=bool(rng.integers(2)),
        use_iub_buckets=bool(rng.integers(2)),
        vanilla_initialization=bool(rng.random() < 0.75),
    )
    return {
        "collection": collection,
        "query": query,
        "stream": tuples,
        "config": config,
        "k": int(rng.integers(1, len(sets) + 3)),
        "shared": SHARED_LEVELS[int(rng.integers(len(SHARED_LEVELS)))],
        "block_size": BLOCK_SIZES[int(rng.integers(len(BLOCK_SIZES)))],
    }


def trajectories(case):
    """The real trajectory phase over ``case``, and what it ran on."""
    collection = case["collection"]
    table = token_table_for(collection)
    partition = ColumnarPartition.build(InvertedIndex(collection), table)
    stream = MaterializedTokenStream(
        case["stream"], query_tokens=frozenset(case["query"]), alpha=0.3
    )
    columns = stream.columns(table, case["query"])
    traj = fastpath._trajectories(
        case["query"], columns, partition, table, SearchStats(),
        case["config"], None, case["block_size"],
    )
    return traj, columns, partition


def m_after(traj) -> np.ndarray:
    """``m`` after each event: the ``m`` its candidate's next event
    leaves, or the candidate's final ``m``. Checks on the way that each
    extension leaves the state its predecessor entered."""
    result = traj.final_m[traj.lid].copy()
    following: dict[int, int] = {}
    for event in reversed(range(traj.at.shape[0])):
        lid = int(traj.lid[event])
        if lid in following:
            successor = following[lid]
            assert not traj.adm[successor]
            assert traj.check_s[successor] == traj.score[event]
            assert traj.at[successor] > traj.at[event]
            result[event] = traj.check_m[successor]
        else:
            assert traj.final_score[lid] == traj.score[event]
        following[lid] = event
    assert set(following.values()) == set(np.flatnonzero(traj.adm).tolist())
    return result


def cap_edges(columns, partition):
    """Every ``(tuple, query element, set, similarity)`` edge of the
    stream, expanded from the posting lists directly."""
    q_col, t_col, s_col = columns
    offsets, sets = partition.csr.offsets, partition.csr.sets
    rows = [
        (i, q_col[i], set_id, s_col[i])
        for i in range(t_col.shape[0])
        if t_col[i] >= 0
        for set_id in sets[offsets[t_col[i]]:offsets[t_col[i] + 1]]
    ]
    tuple_, qi, sid, s = (np.asarray(column) for column in zip(*rows))
    return [(tuple_.astype(np.int64), qi, sid, s.astype(np.float64))]


def observed(state, stats, theta):
    """What the two replays must agree on."""
    return (
        state,
        {name: getattr(stats, name) for name in COUNTERS},
        list(theta.local.items()),
        theta.offers,
        theta.value,
    )


def run_both(case):
    """The trajectory log of ``case`` replayed by the per-event oracle
    and by the epoch replay: ``(oracle, epochs, traj, s_col)`` with what
    each observed, or ``None`` when the stream reaches no set."""
    traj, columns, partition = trajectories(case)
    if traj is None:
        return None
    config = case["config"]
    _, _, s_col = columns
    nq = len(case["query"])

    theta = LoggedTheta(case["k"], case["shared"])
    stats = SearchStats()
    state = per_event_replay(
        [np.arange(traj.at.shape[0])],
        [traj.at],
        [traj.ids[traj.lid]],
        [traj.score],
        [m_after(traj)],
        [np.where(traj.adm, traj.check_s, 0.0)],
        [traj.adm],
        s_col,
        theta,
        stats,
        config,
        partition.n_ids,
        np.zeros((nq, partition.n_ids)) if config.track_caps else None,
        np.minimum(nq, partition.sizes),
        cap_edges(columns, partition),
        nq,
        None,
    )
    oracle = observed(bytes(state), stats, theta)

    theta = LoggedTheta(case["k"], case["shared"])
    stats = SearchStats()
    local, _ = fastpath._replay(
        traj, np.append(s_col, 0.0), theta, stats, config, None
    )
    state = np.zeros(partition.n_ids, dtype=np.uint8)
    state[traj.ids] = local
    return oracle, observed(state.tobytes(), stats, theta), traj, s_col


class TestEpochReplayEqualsPerEventReplay:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    # A safe-mode veto decided on the last tuple of a similarity level,
    # where the falling default of the unseen slots is one tuple away.
    @example(seed=141)
    def test_same_states_counters_list_and_offers(self, seed):
        result = run_both(make_case(seed))
        if result is None:
            return  # the stream reaches no set: nothing to replay
        oracle, epochs, _, _ = result
        for got, want, what in zip(
            epochs,
            oracle,
            ("state", "counters", "L_lb", "offers", "theta"),
        ):
            assert got == want, what
        # Offers are made with plain ints and floats, as the loop did.
        assert all(
            type(set_id) is int and type(bound) is float
            for set_id, bound, _ in epochs[3]
        )

    def test_a_raised_shared_threshold_prunes_at_first_sight(self):
        """Named case: a shared threshold above every bound prunes
        every admission at first sight and makes no offer."""
        case = make_case(7)
        case.update(shared=100.0, config=FilterConfig.koios(), k=1)
        oracle, epochs, traj, _ = run_both(case)
        assert epochs == oracle
        assert epochs[1]["pruned_first_sight"] == traj.adm.sum() > 0
        assert epochs[3] == []


def tie_witnesses(case) -> set[str]:
    """The exact float ties — and ``m = 0`` states — a case puts in
    front of a check the per-event replay makes for a candidate that
    survives, where a check of the wrong strictness would prune it."""
    result = run_both(case)
    if result is None:
        return set()
    (state, _, _, offers, _), _, traj, s_col = result
    survivor = np.frombuffer(state, dtype=np.uint8)[traj.ids] == 1
    witnesses = set()
    if (survivor & (traj.final_m == 0)).any():
        witnesses.add("m = 0")
    # theta after every tuple, from the offers the loop made.
    shared = case["shared"] or 0.0
    mirror = TopKList(case["k"])
    theta_end = np.full(s_col.shape[0], shared)
    pending = list(offers)
    for event in range(traj.at.shape[0]):
        set_id = int(traj.ids[traj.lid[event]])
        bound = float(traj.score[event])
        if (
            survivor[traj.lid[event]]
            and len(mirror) >= mirror.k
            and bound == mirror.bottom()
        ):
            witnesses.add("bound == bottom")
        if pending and pending[0][:2] == (set_id, bound):
            mirror.offer(*pending.pop(0)[:2])
            theta_end[traj.at[event]:] = max(shared, mirror.bottom())
    if case["config"].use_iub_buckets:
        ext = np.flatnonzero(~traj.adm & survivor[traj.lid])
        at = traj.at[ext] - 1
        level = theta_end[at]
        tie = traj.check_s[ext] == level - traj.check_m[ext] * s_col[at]
        if (tie & (level > 0)).any():
            witnesses.add("S == theta - m*s")
    return witnesses


class TestTieCoverage:
    def test_cases_reach_exact_ties_and_every_filter_combination(self):
        seen = set()
        filters = set()
        for seed in range(300):
            case = make_case(seed)
            config = case["config"]
            filters.add((
                config.use_first_sight_ub,
                config.use_iub_buckets,
                config.iub_mode,
            ))
            if case["k"] == 1:
                seen.add("k = 1")
            if case["k"] > len(case["collection"]):
                seen.add("k above the set count")
            if case["shared"]:
                seen.add("shared threshold raised")
            seen |= tie_witnesses(case)
        assert seen == {
            "k = 1",
            "k above the set count",
            "shared threshold raised",
            "m = 0",
            "bound == bottom",
            "S == theta - m*s",
        }
        assert len(filters) == 8
