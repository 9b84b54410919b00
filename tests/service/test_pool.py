"""Tests for the sharded engine pool.

The pool is §VI's partitioned search (its shards are the paper's random
partitions sharing one ``theta_lb``): merged score vectors are
byte-identical to the single-engine answer; result *membership* may
differ only among sets tied at the k-th score (an inherent degree of
freedom of any split of the repository).
"""

import pytest

from repro.core import KoiosSearchEngine
from repro.core.stats import REFINEMENT
from repro.datasets import SetCollection
from repro.errors import InvalidParameterError
from repro.service import EnginePool

K = 10
NUM_QUERIES = 25


def assert_same_topk(pool_result, engine_result):
    """Scores must match exactly; ids must match off score ties."""
    assert pool_result.scores() == engine_result.scores()
    for ours, theirs in zip(pool_result.entries, engine_result.entries):
        if engine_result.scores().count(theirs.score) == 1:
            assert ours.set_id == theirs.set_id


@pytest.fixture(scope="module")
def queries(tiny_opendata):
    collection = tiny_opendata.collection
    return [collection[i] for i in range(0, len(collection), 5)][:NUM_QUERIES]


class TestEnginePool:
    def test_single_shard_matches_engine_exactly(self, tiny_opendata, queries):
        engine = tiny_opendata.engine(alpha=0.8)
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=1,
        )
        for query in queries:
            ours = pool.search(query, K)
            theirs = engine.search(query, K)
            assert ours.ids() == theirs.ids()
            assert ours.scores() == theirs.scores()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_scores_match_engine(self, tiny_opendata, queries, shards):
        engine = tiny_opendata.engine(alpha=0.8)
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=shards,
        )
        assert pool.num_shards == shards
        for query in queries:
            assert_same_topk(pool.search(query, K), engine.search(query, K))

    def test_parallel_shards_match_serial_scores(
        self, tiny_opendata, tiny_wdc, queries
    ):
        cases = [
            (tiny_opendata, 3, K, queries[:8]),
            # A second profile and shard count.
            (tiny_wdc, 4, 5, [tiny_wdc.collection[i] for i in (2, 21)]),
        ]
        for stack, shards, k, case_queries in cases:
            serial, parallel = (
                EnginePool(
                    stack.collection,
                    stack.index,
                    stack.sim,
                    alpha=0.8,
                    shards=shards,
                    parallel_shards=parallel_shards,
                )
                for parallel_shards in (False, True)
            )
            try:
                for query in case_queries:
                    assert parallel.search(query, k).scores() == \
                        serial.search(query, k).scores()
            finally:
                parallel.shutdown()

    def test_shared_drain_matches_per_search_drain(self, tiny_opendata, queries):
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=2,
        )
        query = queries[0]
        stream = pool.drain(query)
        with_stream = pool.search(query, K, stream=stream)
        without = pool.search(query, K)
        assert with_stream.ids() == without.ids()
        assert with_stream.scores() == without.scores()

    def test_own_drain_is_timed_as_refinement(self, tiny_opendata, queries):
        """A search that drains its own stream counts the drain in the
        merged refinement time, as an engine does; a replayed stream
        adds nothing beyond the shards' own work."""
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=2,
        )

        def outside_shards(result):
            shard_work = sum(
                p.timer.seconds(REFINEMENT) for p in result.partition_stats
            )
            return result.stats.timer.seconds(REFINEMENT) - shard_work

        query = queries[0]
        replayed = pool.search(query, K, stream=pool.drain(query))
        assert outside_shards(replayed) == pytest.approx(0.0, abs=1e-12)
        assert outside_shards(pool.search(query, K)) > 0.0

    def test_per_call_alpha_override(self, tiny_opendata, queries):
        engine = tiny_opendata.engine(alpha=0.9)
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=2,
        )
        query = queries[1]
        assert_same_topk(
            pool.search(query, K, alpha=0.9), engine.search(query, K)
        )

    def test_reload_bumps_version_and_serves_new_sets(self, tiny_opendata):
        collection = tiny_opendata.collection
        pool = EnginePool(
            collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=2,
        )
        assert pool.version == 0
        probe = collection[0]
        grown = SetCollection(
            list(collection) + [probe],
            names=[collection.name_of(i) for i in collection.ids()]
            + ["clone"],
        )
        assert pool.reload(grown) == 1
        result = pool.search(probe, 2)
        names = [entry.name for entry in result.entries]
        assert collection.name_of(0) in names
        assert "clone" in names

    def test_time_budget_is_shared_across_shards(self, tiny_opendata, queries):
        import time

        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=4,
        )
        started = time.perf_counter()
        result = pool.search(queries[0], K, time_budget=1e-9)
        elapsed = time.perf_counter() - started
        assert result.timed_out
        # one budget for the whole query, not one per shard
        assert elapsed < 1.0

    def test_rejects_bad_parameters(self, tiny_opendata):
        with pytest.raises(InvalidParameterError):
            EnginePool(
                tiny_opendata.collection,
                tiny_opendata.index,
                tiny_opendata.sim,
                shards=0,
            )
        with pytest.raises(InvalidParameterError):
            # duplicate shard ids would corrupt posting lists
            KoiosSearchEngine(
                tiny_opendata.collection,
                tiny_opendata.index,
                tiny_opendata.sim,
                set_ids=[3, 3, 5],
            )
        with pytest.raises(InvalidParameterError):
            EnginePool(
                tiny_opendata.collection,
                tiny_opendata.index,
                tiny_opendata.sim,
                alpha=1.5,
            )
