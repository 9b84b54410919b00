"""End-to-end tests of the Koios engine against the brute-force oracle."""

import sys
import time

import numpy as np
import pytest

from repro.baselines import BruteForceSearcher
from repro.core import (
    FilterConfig,
    KoiosSearchEngine,
    fastpath,
    koios,
    postprocessing,
)
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel, VectorStore
from repro.errors import EmptyQueryError, InvalidParameterError
from repro.index.vector_index import ExactCosineIndex
from repro.service import EnginePool
from repro.sim import CallableSimilarity
from repro.sim.cosine import CosineSimilarity
from tests.conftest import assert_same_scores
from tests.core.test_verify_batched import cluster_corpus
from tests.core import refinement_oracle
from tests.core.refinement_oracle import ENGINES
from tests.helpers import ScanTokenIndex


class ExpiringClock:
    """Stands in for a module's ``time``: the real ``perf_counter`` for
    the first ``after`` reads, two hours later from then on."""

    def __init__(self, after: int | None) -> None:
        self.after = after
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        expired = self.after is not None and self.reads > self.after
        return time.perf_counter() + (7200.0 if expired else 0.0)


class CallerClock(ExpiringClock):
    """An :class:`ExpiringClock` that also records which function made
    each read."""

    def __init__(self, after: int | None) -> None:
        super().__init__(after)
        self.callers: list[str] = []

    def perf_counter(self) -> float:
        self.callers.append(sys._getframe(1).f_code.co_name)
        return super().perf_counter()


def make_engine(sets, sims, alpha=0.7, **kwargs):
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    index = ScanTokenIndex(collection.vocabulary, sim)
    engine = KoiosSearchEngine(
        collection, index, sim, alpha=alpha, **kwargs
    )
    oracle = BruteForceSearcher(collection, sim, alpha=alpha)
    return engine, oracle


def make_pool(sets, sims, alpha=0.7, **kwargs):
    """§VI's partitioned search over the fixture: an engine pool."""
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    index = ScanTokenIndex(collection.vocabulary, sim)
    pool = EnginePool(collection, index, sim, alpha=alpha, **kwargs)
    oracle = BruteForceSearcher(collection, sim, alpha=alpha)
    return pool, oracle


def make_empty_pool():
    """A pool serving a partition of the fixture that holds no set."""
    owners = SetCollection(FIXTURE_SETS).slot_assignment(50).tolist()
    empty = min(set(range(50)) - set(owners))
    pool, _ = make_pool(FIXTURE_SETS, FIXTURE_SIMS, partition=(empty, 50))
    assert pool.num_shards == 0
    return pool


FIXTURE_SETS = [
    {"apple", "pear", "plum"},
    {"apple", "pear", "kiwi"},
    {"car", "bus", "train"},
    {"apple", "grape"},
    {"plum", "cherry", "car"},
    {"pear", "plum", "train", "bus"},
]
FIXTURE_SIMS = {
    ("apple", "cherry"): 0.9,
    ("kiwi", "grape"): 0.85,
    ("bus", "train"): 0.75,
    ("car", "train"): 0.3,
}


class TestValidation:
    def test_empty_query_rejected(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        with pytest.raises(EmptyQueryError):
            engine.search(set(), k=1)

    def test_k_validation(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        with pytest.raises(InvalidParameterError):
            engine.search({"apple"}, k=0)

    @pytest.mark.parametrize(
        "k", [2.5, float("inf"), "3", True, None, 0, -1]
    )
    @pytest.mark.parametrize("searcher", ["engine", "pool", "empty pool"])
    def test_bad_k_rejected_before_any_work(self, monkeypatch, searcher, k):
        """A non-integer, boolean or non-positive ``k`` is refused before
        the stream is drained, by the engine, by a pool and by a pool
        whose partition holds no live set."""
        if searcher == "engine":
            built, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        elif searcher == "pool":
            built, _ = make_pool(FIXTURE_SETS, FIXTURE_SIMS, shards=2)
        else:
            built = make_empty_pool()

        def no_drain(*args, **kwargs):
            raise AssertionError("drained before k was checked")

        monkeypatch.setattr(fastpath, "drain_stream", no_drain)
        monkeypatch.setattr(koios, "drain_stream", no_drain)
        with pytest.raises(InvalidParameterError, match="k must be"):
            built.search({"apple"}, k=k)

    @pytest.mark.parametrize("searcher", ["pool", "empty pool"])
    def test_pool_rejects_empty_query(self, searcher):
        """Like the engine, every pool refuses an empty query — also one
        whose partition holds no live set."""
        if searcher == "pool":
            built, _ = make_pool(FIXTURE_SETS, FIXTURE_SIMS, shards=2)
        else:
            built = make_empty_pool()
        with pytest.raises(EmptyQueryError):
            built.search(set(), k=1)

    def test_numpy_integer_k_accepted(self):
        engine, oracle = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        got = engine.search({"apple", "pear"}, k=np.int64(2))
        assert_same_scores(
            got.scores(), oracle.search({"apple", "pear"}, k=2).scores()
        )

    @pytest.mark.parametrize(
        "set_ids, message",
        [
            ([1.5], "set_ids must be integer"),
            (["3"], "set_ids must be integer"),
            ([True], "set_ids must be integer"),
            ([1, 10], "set_ids holds an out-of-range set id: 10"),
            ([-1], "set_ids holds an out-of-range set id: -1"),
            ([3, 3, 5], "set_ids may not repeat a set id"),
            ([], "set_ids may not be empty"),
        ],
    )
    def test_bad_set_ids_rejected(self, set_ids, message):
        with pytest.raises(InvalidParameterError, match=message):
            make_engine(FIXTURE_SETS, FIXTURE_SIMS, set_ids=set_ids)

    def test_set_ids_restrict_the_search(self):
        engine, oracle = make_engine(
            FIXTURE_SETS, FIXTURE_SIMS, set_ids=(4, 2)
        )
        assert engine.num_sets == 2
        got = engine.search({"plum", "car", "train"}, k=6)
        assert set(got.ids()) == {2, 4}
        want = oracle.scores({"plum", "car", "train"})
        assert got.scores() == sorted(
            (want[2], want[4]), reverse=True
        )

    def test_alpha_validation(self):
        with pytest.raises(InvalidParameterError):
            make_engine(FIXTURE_SETS, FIXTURE_SIMS, alpha=0.0)

    def test_empty_collection_rejected(self):
        sim = CallableSimilarity(PinnedSimilarityModel({}))
        with pytest.raises(InvalidParameterError):
            KoiosSearchEngine(
                SetCollection([]), ScanTokenIndex([], sim), sim
            )


class TestExactness:
    @pytest.mark.parametrize("mode", ["paper", "safe"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_brute_force(self, mode, k):
        engine, oracle = make_engine(
            FIXTURE_SETS,
            FIXTURE_SIMS,
            config=FilterConfig.koios(iub_mode=mode),
        )
        for query in (
            {"apple", "pear"},
            {"car", "bus", "train"},
            {"plum"},
            {"kiwi", "grape", "cherry"},
        ):
            got = engine.search(query, k=k)
            want = oracle.search(query, k=k)
            assert_same_scores(got.scores(), want.scores())

    @pytest.mark.parametrize("partitions", [1, 2, 4])
    def test_partitioned_search_is_exact(self, partitions):
        pool, oracle = make_pool(
            FIXTURE_SETS, FIXTURE_SIMS, shards=partitions
        )
        got = pool.search({"apple", "pear", "plum"}, k=3)
        want = oracle.search({"apple", "pear", "plum"}, k=3)
        assert_same_scores(got.scores(), want.scores())

    def test_query_with_unknown_tokens(self):
        engine, oracle = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        query = {"apple", "doesnotexist"}
        got = engine.search(query, k=2)
        want = oracle.search(query, k=2)
        assert_same_scores(got.scores(), want.scores())

    def test_k_exceeding_matches_returns_fewer(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"cherry"}, k=50)
        assert 0 < len(result.entries) <= 6
        assert all(e.score > 0 for e in result.entries)


class TestResultShape:
    def test_entries_sorted_descending(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"apple", "pear", "plum"}, k=5)
        scores = result.scores()
        assert scores == sorted(scores, reverse=True)

    def test_entries_carry_names(self):
        collection_names = [f"tbl_{i}" for i in range(len(FIXTURE_SETS))]
        collection = SetCollection(FIXTURE_SETS, names=collection_names)
        sim = CallableSimilarity(PinnedSimilarityModel(FIXTURE_SIMS))
        engine = KoiosSearchEngine(
            collection,
            ScanTokenIndex(collection.vocabulary, sim),
            sim,
            alpha=0.7,
        )
        result = engine.search({"apple", "pear"}, k=2)
        assert all(e.name.startswith("tbl_") for e in result.entries)

    def test_theta_k(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"apple", "pear"}, k=2)
        assert result.theta_k == result.entries[-1].score

    def test_unresolved_scores_are_bounds(self):
        engine, oracle = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        query = {"apple", "pear", "plum"}
        lazy = engine.search(query, k=3, resolve_scores=False)
        truth = {e.set_id: e.score for e in oracle.search(query, k=6).entries}
        for entry in lazy.entries:
            assert entry.lower_bound <= truth[entry.set_id] + 1e-9
            assert entry.upper_bound >= truth[entry.set_id] - 1e-9

    def test_stats_consistency(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"apple", "pear", "plum"}, k=2)
        assert result.stats.consistency_ok()
        assert result.stats.candidates > 0

    def test_partition_stats_reported(self):
        """An engine is one partition; a pool reports one per shard."""
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"apple"}, k=1)
        assert len(result.partition_stats) == 1
        assert result.partition_stats[0] is result.stats
        pool, _ = make_pool(FIXTURE_SETS, FIXTURE_SIMS, shards=3)
        result = pool.search({"apple"}, k=1)
        assert pool.num_shards == 3
        assert len(result.partition_stats) == pool.num_shards


class TestEdgeConfigurations:
    def test_alpha_one_degenerates_to_vanilla_overlap(self):
        # With alpha = 1.0 only exact matches (and perfect-similarity
        # pairs) contribute: SO collapses onto |Q ∩ C|.
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS, alpha=1.0)
        result = engine.search({"apple", "pear", "plum"}, k=3)
        from repro.core import vanilla_overlap

        for entry in result.entries:
            assert entry.score == pytest.approx(
                vanilla_overlap(
                    {"apple", "pear", "plum"}, FIXTURE_SETS[entry.set_id]
                )
            )

    def test_single_set_collection(self):
        engine, oracle = make_engine([{"apple", "pear"}], FIXTURE_SIMS)
        got = engine.search({"apple"}, k=3)
        assert got.ids() == [0]
        assert got.entries[0].score == pytest.approx(1.0)

    def test_query_covering_whole_vocabulary(self):
        engine, oracle = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        vocabulary = set().union(*FIXTURE_SETS)
        got = engine.search(vocabulary, k=4)
        want = oracle.search(vocabulary, k=4)
        assert_same_scores(got.scores(), want.scores())

    def test_more_partitions_than_sets(self):
        pool, oracle = make_pool(FIXTURE_SETS, FIXTURE_SIMS, shards=50)
        assert pool.num_shards <= len(FIXTURE_SETS)
        got = pool.search({"apple", "plum"}, k=3)
        want = oracle.search({"apple", "plum"}, k=3)
        assert_same_scores(got.scores(), want.scores())

    def test_duplicate_sets_tie_break_deterministic(self):
        sets = [{"apple", "pear"}, {"apple", "pear"}, {"kiwi"}]
        engine, _ = make_engine(sets, FIXTURE_SIMS)
        first = engine.search({"apple", "pear"}, k=2)
        second = engine.search({"apple", "pear"}, k=2)
        assert first.ids() == second.ids() == [0, 1]


class TestTimeBudget:
    def test_zero_budget_times_out(self):
        engine, _ = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"apple", "pear"}, k=2, time_budget=0.0)
        assert result.timed_out

    def test_generous_budget_completes(self):
        engine, oracle = make_engine(FIXTURE_SETS, FIXTURE_SIMS)
        result = engine.search({"apple", "pear"}, k=2, time_budget=60.0)
        assert not result.timed_out
        assert_same_scores(
            result.scores(), oracle.search({"apple", "pear"}, k=2).scores()
        )

    @pytest.mark.parametrize(
        "engine,module",
        [("columnar", fastpath), ("reference", refinement_oracle)],
    )
    def test_budget_expiring_inside_refinement(
        self, monkeypatch, engine, module
    ):
        """The clock passes the deadline halfway through refinement's
        polls — past the trajectory blocks, among the replay windows
        (columnar), or per 256 stream tuples (reference): the search is
        ``timed_out`` and refinement stops at the very next poll."""
        sets, provider = cluster_corpus()
        collection = SetCollection(sets)
        store = VectorStore(provider, collection.vocabulary)
        searcher = ENGINES[engine](
            collection,
            ExactCosineIndex(store, provider),
            CosineSimilarity(provider),
            alpha=0.75,
        )
        query = frozenset().union(*sets[:6])
        polls = ExpiringClock(after=None)
        monkeypatch.setattr(module, "time", polls)
        full = searcher.search(query, 5, time_budget=3600.0)
        assert not full.timed_out
        after = polls.reads // 2
        if engine == "columnar":
            blocks = -(-full.stats.stream_tuples // fastpath.BLOCK_SIZE)
            assert blocks < after < polls.reads
        assert 0 < after < polls.reads

        clock = ExpiringClock(after=after)
        monkeypatch.setattr(module, "time", clock)
        started = time.perf_counter()
        result = searcher.search(query, 5, time_budget=3600.0)
        assert result.timed_out
        assert clock.reads == after + 1
        assert time.perf_counter() - started < 60.0

    @pytest.mark.parametrize("engine", ["columnar", "reference"])
    def test_budget_expiring_inside_verification(self, monkeypatch, engine):
        """The clock passes the deadline at the middle one of the
        verification walk's per-window polls — not at a read the solver
        makes of its bound: the search is ``timed_out`` and verification
        stops at that very poll."""
        sets, provider = cluster_corpus()
        collection = SetCollection(sets)
        store = VectorStore(provider, collection.vocabulary)
        searcher = ENGINES[engine](
            collection,
            ExactCosineIndex(store, provider),
            CosineSimilarity(provider),
            alpha=0.75,
        )
        query = frozenset(sets[11])
        polls = CallerClock(after=None)
        monkeypatch.setattr(postprocessing, "time", polls)
        full = searcher.search(query, 5, time_budget=3600.0)
        assert not full.timed_out
        window_polls = [
            read for read, caller in enumerate(polls.callers)
            if caller == "_walk"
        ]
        assert len(window_polls) > 2
        after = window_polls[len(window_polls) // 2]

        clock = CallerClock(after=after)
        monkeypatch.setattr(postprocessing, "time", clock)
        result = searcher.search(query, 5, time_budget=3600.0)
        assert result.timed_out
        assert clock.reads == after + 1
        assert clock.callers[-1] == "_walk"
