"""End-to-end integration: the full pipeline (synthetic corpus, planted
embeddings, vector index, Koios) against the brute-force oracle, across
all four tiny Table-I profiles, partition counts, and index backends."""

import pytest

from repro.baselines import ExhaustiveBaseline
from repro.core import FilterConfig, KoiosSearchEngine
from repro.datasets import QueryBenchmark, SetCollection
from repro.index import ExactJaccardIndex
from repro.service import EnginePool
from repro.sim import QGramJaccardSimilarity
from tests.conftest import assert_same_scores

PROFILES = ["dblp", "opendata", "twitter", "wdc"]


class TestAllProfilesMatchOracle:
    @pytest.mark.parametrize("name", PROFILES)
    def test_koios_equals_brute_force(self, name, tiny_stacks, tiny_oracles):
        stack = tiny_stacks[name]
        oracle = tiny_oracles[name]
        engine = stack.engine(alpha=0.8)
        bench = QueryBenchmark.uniform(stack.collection, 6, seed=3)
        for _, _, tokens in bench:
            got = engine.search(tokens, k=5)
            want = oracle.search(tokens, k=5)
            assert_same_scores(got.scores(), want.scores())
            assert got.stats.consistency_ok()

    @pytest.mark.parametrize("partitions", [2, 5])
    def test_partitioned_matches_single(self, tiny_opendata, partitions):
        single = tiny_opendata.engine(alpha=0.8)
        multi = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
            shards=partitions,
        )
        for qid in (1, 17, 40):
            query = tiny_opendata.collection[qid]
            assert_same_scores(
                multi.search(query, k=5).scores(),
                single.search(query, k=5).scores(),
            )

    def test_safe_mode_matches_paper_mode(self, tiny_wdc):
        paper = tiny_wdc.engine(alpha=0.8)
        safe = tiny_wdc.engine(
            alpha=0.8, config=FilterConfig.koios(iub_mode="safe")
        )
        for qid in (0, 9, 33):
            query = tiny_wdc.collection[qid]
            assert_same_scores(
                safe.search(query, k=4).scores(),
                paper.search(query, k=4).scores(),
            )

    def test_many_to_one_upper_bounds_koios(self, tiny_opendata):
        from repro.core.many_to_one import ManyToOneSearchEngine

        koios = tiny_opendata.engine(alpha=0.8)
        relaxed = ManyToOneSearchEngine(
            tiny_opendata.collection, tiny_opendata.index, alpha=0.8
        )
        query = tiny_opendata.collection[11]
        exact = {e.set_id: e.score for e in koios.search(query, k=5).entries}
        relaxed_scores = relaxed.scores(query)
        for set_id, score in exact.items():
            assert relaxed_scores.get(set_id, 0.0) >= score - 1e-6


class TestBaselinesOnSyntheticData:
    def test_baseline_and_koios_agree(self, tiny_stacks, tiny_oracles):
        stack = tiny_stacks["twitter"]
        oracle = tiny_oracles["twitter"]
        baseline = ExhaustiveBaseline(
            stack.collection, stack.index, stack.sim, alpha=0.8
        )
        query = stack.collection[7]
        assert_same_scores(
            baseline.search(query, k=5).scores(),
            oracle.search(query, k=5).scores(),
        )

    def test_koios_does_less_verification_work(self, tiny_stacks):
        stack = tiny_stacks["opendata"]
        koios = stack.engine(alpha=0.8)
        baseline = ExhaustiveBaseline(
            stack.collection, stack.index, stack.sim, alpha=0.8
        )
        # Use a large query: that is where the paper's filters shine.
        big = max(
            stack.collection.ids(), key=stack.collection.cardinality
        )
        query = stack.collection[big]
        koios_ems = koios.search(query, k=5).stats.em_full
        baseline_ems = baseline.search(query, k=5).stats.em_full
        assert koios_ems < baseline_ems


class TestJaccardBackend:
    """Koios is similarity-generic (§IV): swap the cosine stack for a
    q-gram Jaccard index and everything still works and stays exact."""

    @pytest.fixture(scope="class")
    def jaccard_setup(self):
        sets = [
            {"charleston", "columbia", "blaine"},
            {"charlestn", "columbi", "blain"},
            {"minnesota", "sacramento"},
            {"blaine", "sacramento", "lexington"},
            {"westcoast", "eastcoast", "charleston"},
        ]
        collection = SetCollection(sets)
        sim = QGramJaccardSimilarity(q=3)
        index = ExactJaccardIndex(collection.vocabulary, sim)
        return collection, sim, index

    def test_exact_results_with_jaccard_index(self, jaccard_setup):
        from repro.baselines import BruteForceSearcher

        collection, sim, index = jaccard_setup
        engine = KoiosSearchEngine(collection, index, sim, alpha=0.5)
        oracle = BruteForceSearcher(collection, sim, alpha=0.5)
        for qid in collection.ids():
            query = collection[qid]
            got = engine.search(query, k=3)
            want = oracle.search(query, k=3)
            assert_same_scores(got.scores(), want.scores())

    def test_typo_variants_found(self, jaccard_setup):
        collection, sim, index = jaccard_setup
        engine = KoiosSearchEngine(collection, index, sim, alpha=0.5)
        result = engine.search({"charleston", "columbia", "blaine"}, k=2)
        assert result.ids()[0] == 0      # the query itself
        assert result.ids()[1] == 1      # its typo-variant sibling
