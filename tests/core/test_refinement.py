"""Tests for Algorithm 1 (refinement) on controlled inputs."""

import pytest

from repro.core import FilterConfig, SearchStats, ThetaLB, TopKList
from tests.core.refinement_oracle import refine
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel
from repro.errors import SearchTimeout
from repro.index import InvertedIndex, TokenStream
from repro.sim import CallableSimilarity
from tests.helpers import ScanTokenIndex


def make_setup(sets, sims, alpha=0.7):
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    index = ScanTokenIndex(collection.vocabulary, sim)
    inverted = InvertedIndex(collection)
    return collection, sim, index, inverted


def run_refine(query, collection, index, inverted, k=2, alpha=0.7,
               config=None, theta=None):
    stream = TokenStream(
        query, index, alpha, collection_vocabulary=collection.vocabulary
    )
    theta = theta or ThetaLB(TopKList(k))
    stats = SearchStats()
    output = refine(
        frozenset(query),
        stream,
        inverted,
        collection,
        theta,
        stats,
        config or FilterConfig.koios(),
    )
    return output, stats, theta


class TestCandidateDiscovery:
    def test_all_sets_with_close_elements_are_candidates(self):
        sets = [{"a", "x"}, {"b", "y"}, {"z", "w"}]
        sims = {("a", "b"): 0.9}
        collection, sim, index, inverted = make_setup(sets, sims)
        output, stats, _ = run_refine({"a"}, collection, index, inverted)
        # Set 0 via exact match, set 1 via the 0.9 edge; set 2 untouched.
        assert stats.candidates == 2
        assert set(output.survivors) <= {0, 1}

    def test_exact_match_only_query(self):
        sets = [{"a"}, {"b"}]
        collection, sim, index, inverted = make_setup(sets, {})
        output, stats, _ = run_refine({"a"}, collection, index, inverted)
        assert stats.candidates == 1
        assert 0 in output.survivors

    def test_vanilla_initialization_counts_overlap(self):
        sets = [{"a", "b", "c", "x"}]
        collection, sim, index, inverted = make_setup(sets, {})
        output, _, _ = run_refine(
            {"a", "b", "c"}, collection, index, inverted
        )
        assert output.survivors[0].lower_bound == pytest.approx(3.0)

    def test_sim_cache_filled(self):
        sets = [{"a", "x"}, {"b", "y"}]
        sims = {("a", "b"): 0.9}
        collection, sim, index, inverted = make_setup(sets, sims)
        output, _, _ = run_refine({"a"}, collection, index, inverted)
        assert output.sim_cache[("a", "a")] == 1.0
        assert output.sim_cache[("a", "b")] == 0.9


class TestBoundsDuringRefinement:
    def test_greedy_partial_matching_is_lower_bound(self):
        sets = [{"b", "c"}]
        sims = {("q1", "b"): 0.9, ("q2", "c"): 0.8}
        collection, sim, index, inverted = make_setup(sets, sims)
        output, _, _ = run_refine({"q1", "q2"}, collection, index, inverted)
        assert output.survivors[0].lower_bound == pytest.approx(1.7)

    def test_one_to_one_enforced_in_partial_matching(self):
        sets = [{"b"}]
        sims = {("q1", "b"): 0.9, ("q2", "b"): 0.85}
        collection, sim, index, inverted = make_setup(sets, sims)
        output, stats, _ = run_refine({"q1", "q2"}, collection, index, inverted)
        assert output.survivors[0].lower_bound == pytest.approx(0.9)
        assert stats.discarded_edges >= 1

    def test_bounds_sandwich_true_overlap_safe_mode(self):
        from repro.core.semantic_overlap import semantic_overlap

        sets = [{"b", "c", "d"}, {"b", "e"}, {"f", "g"}]
        sims = {
            ("q1", "b"): 0.95,
            ("q2", "c"): 0.85,
            ("q1", "c"): 0.8,
            ("q2", "f"): 0.75,
        }
        collection, sim, index, inverted = make_setup(sets, sims)
        output, _, _ = run_refine(
            {"q1", "q2"},
            collection,
            index,
            inverted,
            config=FilterConfig.koios(iub_mode="safe"),
        )
        for set_id, state in output.survivors.items():
            truth = semantic_overlap(
                {"q1", "q2"}, collection[set_id], sim, 0.7
            )
            assert state.lower_bound <= truth + 1e-9
            assert state.final_upper >= truth - 1e-9


class TestPruning:
    def _skewed_setup(self):
        """One dominant family plus weakly-related small sets."""
        query = {f"q{i}" for i in range(8)}
        family = [set(query), set(list(query)[:6]) | {"x1", "x2"}]
        weak = [{"w1", f"z{i}"} for i in range(6)]
        sims = {(f"q{i}", "w1"): 0.71 for i in range(1)}
        sets = family + weak
        return query, make_setup(sets, sims)

    def test_weak_sets_pruned_with_filters(self):
        query, (collection, sim, index, inverted) = self._skewed_setup()
        output, stats, _ = run_refine(
            query, collection, index, inverted, k=1
        )
        assert stats.refinement_pruned >= 1
        assert len(output.survivors) + stats.refinement_pruned == stats.candidates

    def test_no_pruning_without_filters(self):
        query, (collection, sim, index, inverted) = self._skewed_setup()
        output, stats, _ = run_refine(
            query,
            collection,
            index,
            inverted,
            k=1,
            config=FilterConfig.baseline(),
        )
        assert stats.refinement_pruned == 0
        assert len(output.survivors) == stats.candidates

    def test_pruned_sets_below_theta(self):
        from repro.core.semantic_overlap import semantic_overlap

        query, (collection, sim, index, inverted) = self._skewed_setup()
        output, stats, theta = run_refine(
            query, collection, index, inverted, k=1,
            config=FilterConfig.koios(iub_mode="safe"),
        )
        pruned_ids = set(collection.ids()) - set(output.survivors)
        for set_id in pruned_ids:
            truth = semantic_overlap(query, collection[set_id], sim, 0.7)
            if truth == 0.0:
                continue  # never a candidate
            assert truth < theta.value + 1e-9

    def test_theta_monotone_over_stream(self):
        sets = [{"a", "b"}, {"a"}, {"b"}]
        collection, sim, index, inverted = make_setup(sets, {})
        theta = ThetaLB(TopKList(1))
        values = []

        class Spy:
            def offer(self, set_id, value):
                changed = theta.offer(set_id, value)
                values.append(theta.value)
                return changed

            @property
            def value(self):
                return theta.value

            def publish(self):
                theta.publish()

        run_refine({"a", "b"}, collection, index, inverted, theta=Spy())
        assert values == sorted(values)


class TestDeadline:
    def test_expired_deadline_raises(self):
        sets = [{f"t{i}"} for i in range(600)]
        collection, sim, index, inverted = make_setup(sets, {})
        query = {f"t{i}" for i in range(600)}
        stream = TokenStream(
            query, index, 0.7, collection_vocabulary=collection.vocabulary
        )
        with pytest.raises(SearchTimeout):
            refine(
                frozenset(query),
                stream,
                inverted,
                collection,
                ThetaLB(TopKList(1)),
                SearchStats(),
                FilterConfig.koios(),
                deadline=0.0,  # already expired
            )
