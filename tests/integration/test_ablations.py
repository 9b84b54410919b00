"""Integration tests of filter ablations: every configuration must stay
exact; the filters only change how much work is done."""

import pytest

from repro.core import FilterConfig
from repro.datasets import QueryBenchmark
from repro.service import EnginePool
from tests.conftest import assert_same_scores

ABLATIONS = {
    "no-first-sight": {"use_first_sight_ub": False},
    "no-buckets": {"use_iub_buckets": False},
    "no-no-em": {"use_no_em": False},
    "no-early-term": {"use_em_early_termination": False},
    "no-vanilla-init": {"vanilla_initialization": False},
}


class TestAblationsStayExact:
    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_results_unchanged(self, name, tiny_opendata, tiny_oracles):
        config = FilterConfig.koios(iub_mode="safe").without(
            **ABLATIONS[name]
        )
        engine = tiny_opendata.engine(alpha=0.8, config=config)
        oracle = tiny_oracles["opendata"]
        for qid in (2, 25, 60):
            query = tiny_opendata.collection[qid]
            assert_same_scores(
                engine.search(query, k=5).scores(),
                oracle.search(query, k=5).scores(),
            )


class TestFiltersReduceWork:
    @pytest.fixture(scope="class")
    def large_query(self, tiny_opendata):
        big = max(
            tiny_opendata.collection.ids(),
            key=tiny_opendata.collection.cardinality,
        )
        return tiny_opendata.collection[big]

    def test_buckets_prune(self, tiny_opendata, large_query):
        on = tiny_opendata.engine(alpha=0.8)
        off = tiny_opendata.engine(
            alpha=0.8,
            config=FilterConfig.koios().without(
                use_iub_buckets=False, use_first_sight_ub=False
            ),
        )
        pruned_on = on.search(large_query, k=5).stats.refinement_pruned
        pruned_off = off.search(large_query, k=5).stats.refinement_pruned
        assert pruned_on > 0
        assert pruned_off == 0

    def test_early_termination_cuts_full_matchings(
        self, tiny_opendata, large_query
    ):
        on = tiny_opendata.engine(
            alpha=0.8, config=FilterConfig.koios().without(use_no_em=False)
        )
        off = tiny_opendata.engine(
            alpha=0.8,
            config=FilterConfig.koios().without(
                use_no_em=False, use_em_early_termination=False
            ),
        )
        stats_on = on.search(large_query, k=5).stats
        stats_off = off.search(large_query, k=5).stats
        assert stats_off.em_early_terminated == 0
        assert stats_on.em_full <= stats_off.em_full

    def test_benchmark_wide_exactness(self, tiny_wdc, tiny_oracles):
        """Run a small benchmark under an aggressive config and confirm
        every query stays exact."""
        bench = QueryBenchmark.by_quantiles(
            tiny_wdc.collection, 3, 2, seed=4
        )
        engine = EnginePool(
            tiny_wdc.collection, tiny_wdc.index, tiny_wdc.sim,
            alpha=0.8, shards=3,
        )
        oracle = tiny_oracles["wdc"]
        for _, _, tokens in bench:
            assert_same_scores(
                engine.search(tokens, k=5).scores(),
                oracle.search(tokens, k=5).scores(),
            )
