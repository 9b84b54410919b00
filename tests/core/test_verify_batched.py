"""The batched Lemma-8 initial check: exact floats, proportional work.

``ColumnarVerifier.prepare`` computes every survivor's initial label sum
in one pass over the partition's posting arrays, and ``match`` retires a
survivor from that float alone. Two things pin that down here:

* a Hypothesis property: on random small corpora the batched sum of
  every survivor is *bitwise* ``initial_label_sum(weights_of(id))`` —
  the float the solver itself starts from — and the drift guard's
  fallback set is the one the per-candidate rule picks;
* a work-proportionality guard that reads no clock: on a corpus where
  hundreds of survivors are retired by the initial check, a search
  interns, reads from the collection and enters the solver only for the
  few sets a matching is actually entered for.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FilterConfig, KoiosSearchEngine
from repro.core import fastpath_verify
from repro.core.fastpath import (
    ColumnarPartition,
    fast_drain,
    sim_cache_from_stream,
)
from repro.core.fastpath_verify import ColumnarVerifier
from repro.core.postprocessing import index_cache_by_token
from repro.datasets import SetCollection
from repro.embedding import VectorStore
from repro.embedding.synthetic import SyntheticEmbeddingModel
from repro.index import InvertedIndex, token_table_for
from repro.index.interning import TokenTable
from repro.index.vector_index import ExactCosineIndex
from repro.matching.hungarian import initial_label_sum
from repro.sim.cosine import CosineSimilarity
from repro.store import load_snapshot, save_snapshot

ALPHA = 0.7

# -- the property's token universe -------------------------------------------

CLUSTERS = {
    f"c{c}": [f"c{c}_{m}" for m in range(8)] for c in range(4)
}
CLUSTERED = [token for members in CLUSTERS.values() for token in members]
PLAIN = [f"plain_{i}" for i in range(160)]     # no edge >= alpha to anything
UNEMBEDDED = [f"oov_{i}" for i in range(4)]    # outside the embedding store
UNIVERSE = CLUSTERED + PLAIN + UNEMBEDDED
#: Tokens a query may hold that no set does.
STRANGERS = ["stranger_0", "stranger_1", "c0_stranger"]

PROVIDER = SyntheticEmbeddingModel(
    dim=16,
    clusters={**CLUSTERS, "c0": CLUSTERS["c0"] + ["c0_stranger"]},
    cluster_similarity=0.9,
    oov_tokens=UNEMBEDDED + STRANGERS[:1],
)

small_sets = st.frozensets(
    st.sampled_from(CLUSTERED + PLAIN[:6] + UNEMBEDDED),
    min_size=1,
    max_size=12,
)
#: One set past NumPy's 128-element pairwise-summation block.
large_set = st.frozensets(
    st.sampled_from(UNIVERSE), min_size=129, max_size=150
)
queries = st.frozensets(
    st.sampled_from(CLUSTERED + PLAIN[:3] + UNEMBEDDED + STRANGERS),
    min_size=1,
    max_size=9,
)


def suspect_holders(collection, sim, rows, cache, survivor_ids):
    """The per-candidate rule: a survivor takes the reference fallback
    when one of its members has an uncached, non-identity cell at or
    above ``alpha`` minus the drift band."""
    floor = ALPHA - ColumnarVerifier.GEMM_DRIFT_BAND
    holders = set()
    for set_id in survivor_ids:
        members = sorted(collection[set_id])
        raw = sim.matrix(rows, members)
        for i, q_token in enumerate(rows):
            for j, token in enumerate(members):
                if (
                    q_token != token
                    and (q_token, token) not in cache
                    and raw[i, j] >= floor
                ):
                    holders.add(set_id)
    return holders


class TestBatchedInitialLabelSums:
    @settings(max_examples=250, deadline=None)
    @given(
        sets=st.lists(small_sets, min_size=1, max_size=14),
        big=st.none() | large_set,
        query=queries,
        data=st.data(),
    )
    def test_sums_are_bitwise_the_solvers_and_fallbacks_agree(
        self, sets, big, query, data
    ):
        if big is not None:
            sets = sets + [big]
        collection = SetCollection(sets)
        store = VectorStore(PROVIDER, collection.vocabulary)
        index = ExactCosineIndex(store, PROVIDER)
        sim = CosineSimilarity(PROVIDER)
        table = token_table_for(collection)
        stream = fast_drain(
            query, index, ALPHA, vocabulary=collection.vocabulary, table=table
        )
        cache = sim_cache_from_stream(stream)
        # Forget some streamed pairs: their cells stay above alpha but
        # are no longer pinned by the cache, i.e. forced suspects.
        forgotten = data.draw(
            st.sets(st.sampled_from(sorted(cache)), max_size=3)
            if cache else st.just(set())
        )
        for pair in forgotten:
            del cache[pair]
        survivor_ids = data.draw(
            st.sets(
                st.sampled_from(range(len(collection))), min_size=1
            ).map(sorted)
        )
        verifier = ColumnarVerifier(
            query,
            collection,
            table,
            sim,
            ALPHA,
            ColumnarPartition.build(InvertedIndex(collection), table),
        )
        verifier.prepare(
            np.asarray(survivor_ids, dtype=np.int64),
            index_cache_by_token(cache),
        )
        assert verifier._label_sums.shape == (len(survivor_ids),)
        for row, set_id in enumerate(survivor_ids):
            weights = verifier.weights_of(set_id)
            assert weights.shape == (len(query), len(collection[set_id]))
            # Bitwise, not approx: the float decides a pruning.
            assert verifier._label_sums[row] == initial_label_sum(weights)
        assert verifier._fallback == suspect_holders(
            collection, sim, sorted(query), cache, survivor_ids
        )

    def test_padded_length_changes_the_float(self):
        """Why survivors are grouped by padded length: the same row
        maxima sum to different floats under different zero padding, and
        ``_padded_row_sums`` reproduces each."""
        rng = np.random.default_rng(5)
        row_max = rng.random((400, 19))
        lengths = rng.choice([19, 20, 27, 64, 129, 200, 1500], size=400)
        sums = fastpath_verify._padded_row_sums(row_max, lengths)
        distinct = 0
        for row, length, got in zip(row_max, lengths.tolist(), sums.tolist()):
            labels = np.zeros(length)
            labels[:19] = row
            assert got == float(labels.sum())
            distinct += got != float(row.sum())
        assert distinct > 0


# -- work proportional to what is matched ------------------------------------


def cluster_corpus(num_sets=1500, seed=3):
    """A small cluster-structured corpus in the shape of the e2e
    benchmark's dense one: most sets share cluster tokens with any
    query, so most survive refinement and the initial check retires
    them."""
    rng = np.random.default_rng(seed)
    clusters = {
        f"k{c}": [f"k{c}_{m}" for m in range(30)] for c in range(8)
    }
    tokens = [t for members in clusters.values() for t in members]
    tokens += [f"w{i}" for i in range(200)]
    weights = 1.0 / np.arange(1, len(tokens) + 1) ** 0.8
    weights /= weights.sum()
    by_rank = rng.permutation(len(tokens))
    sets = []
    for size in rng.integers(8, 17, size=num_sets).tolist():
        picks = rng.choice(len(tokens), size=size, replace=False, p=weights)
        sets.append({tokens[i] for i in by_rank[picks]})
    provider = SyntheticEmbeddingModel(
        dim=32, clusters=clusters, cluster_similarity=0.85
    )
    return sets, provider


def engine_over(collection, provider, **kwargs):
    store = VectorStore(provider, collection.vocabulary)
    return KoiosSearchEngine(
        collection,
        ExactCosineIndex(store, provider),
        CosineSimilarity(provider),
        alpha=0.75,
        config=FilterConfig.koios(),
        **kwargs,
    )


def counted(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


#: Calls a search makes however many survivors it has: the query's own
#: interning (drain, refinement, the block's identity rule) and the
#: final resolution of No-EM accepts.
CONSTANT = 8


class TestWorkFollowsSolverEntries:
    def test_retired_survivors_cost_no_interning_and_no_reads(
        self, monkeypatch
    ):
        sets, provider = cluster_corpus()
        collection = SetCollection(sets)
        engine = engine_over(collection, provider)
        query = frozenset(sets[11])
        engine.search(query, 5)  # warm: nothing below is first-use work

        calls: dict[str, int] = {}
        counted(monkeypatch, TokenTable, "encode", calls)
        counted(monkeypatch, SetCollection, "__getitem__", calls)
        counted(monkeypatch, fastpath_verify, "hungarian_matching", calls)
        result = engine.search(query, 5)
        stats = result.stats

        assert stats.em_initial_pruned >= 500
        assert stats.verify_fallbacks == 0
        entered = (
            stats.em_early_terminated - stats.em_initial_pruned + stats.em_full
        )
        budget = entered + len(result.entries) + CONSTANT
        assert calls["hungarian_matching"] == entered
        assert calls["encode"] <= budget
        # Two reads per resolved No-EM accept (members, cache view).
        assert calls["__getitem__"] <= budget + len(result.entries)

    def test_tree_roots_tag_sums_the_solver_runs(
        self, monkeypatch, tmp_path
    ):
        from repro.obs import TraceSink, Tracer

        sets, provider = cluster_corpus()
        engine = engine_over(SetCollection(sets), provider)
        query = frozenset(sets[11])
        runs = []
        solver = fastpath_verify.hungarian_matching

        def recorded(*args, **kwargs):
            runs.append(solver(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(fastpath_verify, "hungarian_matching", recorded)
        tracer = Tracer(TraceSink(str(tmp_path / "trace.jsonl")))
        with tracer.span("search") as span:
            engine.search(query, 5)
        tracer.close()
        total = sum(run.tree_roots for run in runs)
        assert total > 0  # some matchings fell through the shortcut
        assert span.tags["verify_tree_roots"] == total

    def test_lazy_snapshot_collection_decodes_only_what_is_matched(
        self, tmp_path
    ):
        sets, provider = cluster_corpus()
        path = tmp_path / "clusters.snap"
        save_snapshot(path, SetCollection(sets))
        loaded = load_snapshot(path)
        collection = loaded.collection
        engine = engine_over(
            collection, provider, inverted_factory=loaded.inverted_factory()
        )
        result = engine.search(frozenset(sets[11]), 5)
        stats = result.stats

        assert stats.em_initial_pruned >= 500
        entered = (
            stats.em_early_terminated - stats.em_initial_pruned + stats.em_full
        )
        decoded = sum(members is not None for members in collection._sets)
        assert decoded <= entered + len(result.entries) + CONSTANT
        assert decoded < stats.postprocessed / 10
