"""Cross-cutting property tests of Koios invariants on random inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FilterConfig, SearchStats, ThetaLB, TopKList
from tests.core.refinement_oracle import refine
from repro.core.semantic_overlap import semantic_overlap
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel
from repro.index import InvertedIndex, ScanTokenIndex, TokenStream
from repro.sim import CallableSimilarity

TOKENS = [f"t{i}" for i in range(10)]
ALPHA = 0.6

token_sets = st.sets(st.sampled_from(TOKENS), min_size=1, max_size=5)


@st.composite
def scenarios(draw):
    sets = draw(st.lists(token_sets, min_size=1, max_size=8))
    query = draw(token_sets)
    raw = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(TOKENS), st.sampled_from(TOKENS)),
            st.floats(min_value=0.0, max_value=1.0),
            max_size=12,
        )
    )
    sims = {pair: value for pair, value in raw.items() if pair[0] != pair[1]}
    return sets, query, sims


def run_refinement(sets, query, sims, config):
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    index = ScanTokenIndex(collection.vocabulary, sim)
    stream = TokenStream(
        query, index, ALPHA, collection_vocabulary=collection.vocabulary
    )
    theta = ThetaLB(TopKList(2))
    stats = SearchStats()
    output = refine(
        frozenset(query),
        stream,
        InvertedIndex(collection),
        collection,
        theta,
        stats,
        config,
    )
    return collection, sim, output, stats, theta


class TestRefinementInvariants:
    @settings(max_examples=80, deadline=None)
    @given(scenarios())
    def test_lower_bounds_are_sound_in_both_modes(self, case):
        """iLB (Lemma 5) never exceeds the true semantic overlap,
        regardless of iUB mode."""
        sets, query, sims = case
        for mode in ("paper", "safe"):
            collection, sim, output, _, _ = run_refinement(
                sets, query, sims, FilterConfig.koios(iub_mode=mode)
            )
            for set_id, state in output.survivors.items():
                truth = semantic_overlap(
                    query, collection[set_id], sim, ALPHA
                )
                assert state.lower_bound <= truth + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(scenarios())
    def test_safe_upper_bounds_are_sound(self, case):
        sets, query, sims = case
        collection, sim, output, _, _ = run_refinement(
            sets, query, sims, FilterConfig.koios(iub_mode="safe")
        )
        for set_id, state in output.survivors.items():
            truth = semantic_overlap(query, collection[set_id], sim, ALPHA)
            assert state.final_upper >= truth - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_candidates_are_exactly_nonzero_overlap_sets(self, case):
        """§VII: every set with SO > 0 is considered, and only those."""
        sets, query, sims = case
        collection, sim, output, stats, _ = run_refinement(
            sets, query, sims, FilterConfig.baseline()
        )
        nonzero = {
            set_id
            for set_id in collection.ids()
            if semantic_overlap(query, collection[set_id], sim, ALPHA) > 0
        }
        assert set(output.survivors) == nonzero
        assert stats.candidates == len(nonzero)

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_stream_tuples_cover_all_pairs_above_alpha(self, case):
        """The token stream emits exactly the (q, token) pairs whose
        similarity clears alpha (plus in-vocabulary self matches)."""
        sets, query, sims = case
        collection = SetCollection(sets)
        sim = CallableSimilarity(PinnedSimilarityModel(sims))
        index = ScanTokenIndex(collection.vocabulary, sim)
        stream = TokenStream(
            query, index, ALPHA,
            collection_vocabulary=collection.vocabulary,
        )
        emitted = {(q, t) for q, t, _ in stream}
        expected = set()
        for q_token in query:
            for token in collection.vocabulary:
                if q_token == token:
                    expected.add((q_token, token))  # self-match rule
                elif sim.score(q_token, token) >= ALPHA:
                    expected.add((q_token, token))
        assert emitted == expected

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_pruning_monotone_in_theta(self, case):
        """A higher starting threshold never yields more survivors."""
        sets, query, sims = case
        collection = SetCollection(sets)
        sim = CallableSimilarity(PinnedSimilarityModel(sims))
        index = ScanTokenIndex(collection.vocabulary, sim)

        def survivors_with_seed(seed_value):
            stream = TokenStream(
                query, index, ALPHA,
                collection_vocabulary=collection.vocabulary,
            )
            llb = TopKList(1)
            theta = ThetaLB(llb)
            if seed_value:
                theta.offer(-1, seed_value)
            output = refine(
                frozenset(query),
                stream,
                InvertedIndex(collection),
                collection,
                theta,
                SearchStats(),
                # Safe mode: monotonicity needs sound upper bounds (a
                # paper-mode bound undercutting SO can suppress a later
                # theta-raising offer).
                FilterConfig.koios(iub_mode="safe"),
            )
            return set(output.survivors)

        low = survivors_with_seed(0.0)
        high = survivors_with_seed(3.0)
        assert high <= low
