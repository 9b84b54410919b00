"""Property-based end-to-end test: Koios (safe iUB mode) must agree with
the brute-force oracle on arbitrary random corpora and similarities."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import BruteForceSearcher
from repro.core import FilterConfig, KoiosSearchEngine
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel
from repro.service import EnginePool
from repro.sim import CallableSimilarity
from tests.helpers import ScanTokenIndex

TOKENS = [f"t{i}" for i in range(12)]

token_subsets = st.sets(st.sampled_from(TOKENS), min_size=1, max_size=6)


@st.composite
def corpora(draw):
    sets = draw(st.lists(token_subsets, min_size=2, max_size=10))
    query = draw(token_subsets)
    num_pairs = draw(st.integers(min_value=0, max_value=10))
    sims = {}
    for _ in range(num_pairs):
        a = draw(st.sampled_from(TOKENS))
        b = draw(st.sampled_from(TOKENS))
        if a == b:
            continue
        sims[(a, b)] = draw(
            st.floats(min_value=0.0, max_value=1.0, width=32)
        )
    k = draw(st.integers(min_value=1, max_value=4))
    partitions = draw(st.sampled_from([1, 3]))
    return sets, query, sims, k, partitions


@settings(max_examples=80, deadline=None)
@given(corpora())
def test_koios_equals_brute_force(case):
    sets, query, sims, k, partitions = case
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    index = ScanTokenIndex(collection.vocabulary, sim)
    engine = EnginePool(
        collection,
        index,
        sim,
        alpha=0.6,
        shards=partitions,
        config=FilterConfig.koios(iub_mode="safe"),
    )
    oracle = BruteForceSearcher(collection, sim, alpha=0.6)

    got = engine.search(query, k=k)
    want = oracle.search(query, k=k)
    # Score multisets must agree exactly (ties may reorder ids).
    assert len(got.entries) == len(want.entries)
    for a, b in zip(got.scores(), want.scores()):
        assert a == pytest.approx(b, abs=1e-9)
    assert got.stats.consistency_ok()


@settings(max_examples=40, deadline=None)
@given(corpora())
def test_all_configs_agree_on_scores(case):
    """Koios, Baseline, and Baseline+ are the same search problem under
    different filter settings — their results must coincide."""
    sets, query, sims, k, _ = case
    collection = SetCollection(sets)
    sim = CallableSimilarity(PinnedSimilarityModel(sims))
    index = ScanTokenIndex(collection.vocabulary, sim)
    results = []
    for config in (
        FilterConfig.koios(iub_mode="safe"),
        FilterConfig.baseline(),
        # Safe iUB mode: hypothesis reliably finds the adversarial
        # near-tie inputs on which the paper's Lemma-6 bound is unsound.
        FilterConfig.baseline_plus().without(iub_mode="safe"),
    ):
        engine = KoiosSearchEngine(
            collection, index, sim, alpha=0.6, config=config
        )
        results.append(engine.search(query, k=k).scores())
    assert results[0] == pytest.approx(results[1], abs=1e-9)
    assert results[0] == pytest.approx(results[2], abs=1e-9)
