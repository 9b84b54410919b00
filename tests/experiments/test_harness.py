"""Tests for the shared experiment harness."""

import pytest

from repro.core import FilterConfig, SearchStats
from repro.datasets import QueryBenchmark, TINY_PROFILES, generate_dataset
from repro.experiments import (
    build_stack,
    koios_search_fn,
    mean,
    overall_summary,
    run_benchmark,
    successful,
    summarize,
)
from repro.experiments.harness import QueryRecord
from repro.service import EnginePool


@pytest.fixture(scope="module")
def stack():
    return build_stack(generate_dataset(TINY_PROFILES["twitter"], seed=2))


class TestBuildStack:
    def test_wires_all_components(self, stack):
        assert len(stack.store) > 0
        assert stack.collection is stack.dataset.collection

    def test_engine_factory(self, stack):
        engine = stack.engine(alpha=0.8)
        assert engine.num_sets == len(stack.collection)
        assert engine.alpha == 0.8

    def test_engine_accepts_config(self, stack):
        engine = stack.engine(config=FilterConfig.baseline())
        assert engine.config.exhaustive_verification


class TestRunBenchmark:
    def test_records_per_query(self, stack):
        bench = QueryBenchmark.uniform(stack.collection, 4, seed=0)
        records = run_benchmark(
            koios_search_fn(stack.engine()),
            bench,
            3,
            method="koios",
            dataset_name="twitter",
        )
        assert len(records) == 4
        for record in records:
            assert record.seconds > 0.0
            assert record.cardinality >= 1
            assert record.stats.consistency_ok()
            assert len(record.result_ids) <= 3

    def test_groups_preserved(self, stack):
        bench = QueryBenchmark.by_quantiles(stack.collection, 3, 2, seed=0)
        records = run_benchmark(
            koios_search_fn(stack.engine()),
            bench,
            2,
            method="koios",
            dataset_name="twitter",
        )
        labels = {r.group for r in records}
        assert labels == {g.label for g in bench.groups}


def fake_record(group="g", seconds=1.0, timed_out=False) -> QueryRecord:
    stats = SearchStats()
    stats.candidates = 10
    stats.pruned_first_sight = 4
    stats.no_em_discarded = 3
    stats.em_full = 3
    return QueryRecord(
        dataset="d",
        method="m",
        group=group,
        query_id=0,
        cardinality=5,
        seconds=seconds,
        refinement_seconds=seconds * 0.6,
        postproc_seconds=seconds * 0.4,
        memory_mb=2.0,
        timed_out=timed_out,
        stats=stats,
    )


class TestAggregation:
    def test_mean_of_empty(self):
        assert mean([]) == 0.0

    def test_successful_excludes_timeouts(self):
        records = [fake_record(), fake_record(timed_out=True)]
        assert len(successful(records)) == 1

    def test_summarize_by_group(self):
        records = [
            fake_record("a", 1.0),
            fake_record("a", 3.0),
            fake_record("b", 2.0),
        ]
        summaries = summarize(records)
        assert [s.group for s in summaries] == ["a", "b"]
        assert summaries[0].mean_seconds == pytest.approx(2.0)
        assert summaries[0].queries == 2

    def test_timeouts_counted_but_not_averaged(self):
        records = [fake_record("a", 1.0), fake_record("a", 99.0, True)]
        summary = summarize(records)[0]
        assert summary.timeouts == 1
        assert summary.mean_seconds == pytest.approx(1.0)

    def test_refinement_share(self):
        summary = overall_summary([fake_record()])
        assert summary.refinement_share == pytest.approx(0.6)

    def test_postprocessed(self):
        summary = overall_summary([fake_record()])
        assert summary.postprocessed == pytest.approx(6.0)


class TestParallelSeconds:
    def test_without_partitions_equals_wall_time(self):
        record = fake_record(seconds=2.0)
        assert record.parallel_seconds == 2.0

    def test_with_partitions_takes_slowest(self):
        record = fake_record(seconds=10.0)
        record.partition_seconds = [4.0, 3.0, 2.0]
        # 10s wall - 9s serial partition work + 4s slowest partition.
        assert record.parallel_seconds == pytest.approx(5.0)

    def test_engine_fills_partition_seconds(self, stack):
        from repro.datasets import QueryBenchmark

        bench = QueryBenchmark.uniform(stack.collection, 2, seed=5)
        records = run_benchmark(
            koios_search_fn(EnginePool(
                stack.collection, stack.index, stack.sim, shards=3
            )),
            bench, 2, method="koios", dataset_name="twitter",
        )
        for record in records:
            assert len(record.partition_seconds) == 3
            assert record.parallel_seconds <= record.seconds + 1e-9
