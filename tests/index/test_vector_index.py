"""Tests for the exact cosine streaming index (the Faiss substitute)."""

import numpy as np
import pytest

from repro.embedding import (
    HashingEmbeddingProvider,
    SyntheticEmbeddingModel,
    VectorStore,
)
from repro.embedding.provider import normalize
from repro.index import ExactCosineIndex
from repro.index import vector_index


@pytest.fixture(scope="module")
def setup():
    provider = SyntheticEmbeddingModel(
        dim=48,
        clusters={"c1": ["alpha", "beta"], "c2": ["gamma", "delta"]},
        cluster_similarity=0.9,
        oov_tokens={"ghost"},
    )
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "ghost"]
    store = VectorStore(provider, vocab)
    return provider, store


class TestExactCosineIndex:
    def test_descending_order(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider)
        values = [s for _, s in index.stream("alpha")]
        assert values == sorted(values, reverse=True)

    def test_covers_whole_store(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider)
        tokens = [t for t, _ in index.stream("alpha")]
        assert sorted(tokens) == sorted(store.tokens)

    def test_cluster_member_ranked_first_after_self(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider)
        tokens = [t for t, _ in index.stream("alpha")]
        assert tokens[0] == "alpha"
        assert tokens[1] == "beta"

    def test_matches_brute_force_ranking(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider, batch_size=2)
        probe = store.vector("alpha")
        sims = np.clip(store.matrix @ probe, 0.0, 1.0)
        expected = [
            store.token_at(int(i)) for i in np.argsort(-sims, kind="stable")
        ]
        got = [t for t, _ in index.stream("alpha")]
        assert got == expected

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 100])
    def test_batch_size_does_not_change_stream(self, setup, batch_size):
        provider, store = setup
        reference = list(ExactCosineIndex(store, provider).stream("gamma"))
        batched = list(
            ExactCosineIndex(store, provider, batch_size=batch_size).stream(
                "gamma"
            )
        )
        assert [t for t, _ in batched] == [t for t, _ in reference]

    def test_oov_probe_yields_nothing(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider)
        assert list(index.stream("ghost")) == []

    def test_probe_not_in_store_still_streams(self):
        provider = HashingEmbeddingProvider(dim=32)
        store = VectorStore(provider, ["aaa", "bbb"])
        index = ExactCosineIndex(store, provider)
        assert len(list(index.stream("ccc"))) == 2

    def test_empty_store(self):
        provider = HashingEmbeddingProvider(dim=8)
        store = VectorStore(provider, [])
        index = ExactCosineIndex(store, provider)
        assert list(index.stream("x")) == []

    def test_similarities_clamped(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider)
        for _, value in index.stream("epsilon"):
            assert 0.0 <= value <= 1.0


def unblocked(store, provider, token):
    """A probe's similarities as the index defined them before row
    blocks: one product with the whole matrix."""
    probe = normalize(provider.vector(token))
    return np.clip(store.matrix @ probe, 0.0, 1.0)


def probe_rows(index, tokens):
    """Concatenate :meth:`probe_many`'s blocks per token position,
    checking each token's blocks cover the store in row order."""
    parts = {}
    for position, start, sims in index.probe_many(tokens):
        assert start == sum(p.shape[0] for p in parts.get(position, []))
        parts.setdefault(position, []).append(sims)
    return {position: np.concatenate(p) for position, p in parts.items()}


def stored(rows):
    return [f"tok{i:05d}" for i in range(rows)]


def hashing_setup(rows):
    provider = HashingEmbeddingProvider(dim=64)
    return provider, VectorStore(provider, stored(rows))


def synthetic_setup(rows):
    provider = SyntheticEmbeddingModel(
        dim=64,
        clusters={"c": stored(rows)[::7]},
        cluster_similarity=0.8,
        oov_tokens={"ghost"},
    )
    return provider, VectorStore(provider, stored(rows))


class TestProbeRows:
    """``probe_many`` walks the store in row blocks; every token's rows
    must be byte-equal to the unblocked product, for block sizes that
    divide the store and ones that do not, before and after it grows to
    a one-row tail. Blocks are multiples of 8 rows, as BLAS kernels
    group rows; stores stay below the size at which OpenBLAS threads a
    matrix-vector product, so the unblocked side does not depend on the
    thread count."""

    ROWS = 3000
    GROWN = 1097  # 4097 rows: a one-row tail for every power-of-two block
    PROBES = ["tok00003", "tok01234", "zzz-not-stored", "ghost", "tok02999"]

    @pytest.mark.parametrize("make", [hashing_setup, synthetic_setup])
    @pytest.mark.parametrize("block", [1000, 3000, 512, 1024, 2048, 4096])
    def test_rows_byte_equal_to_unblocked_product(
        self, make, block, monkeypatch
    ):
        monkeypatch.setattr(vector_index, "ROW_BLOCK", block)
        provider, store = make(self.ROWS)
        index = ExactCosineIndex(store, provider)
        for _ in range(2):  # before and after the store grows
            rows = probe_rows(index, self.PROBES)
            covered = [
                j for j, token in enumerate(self.PROBES)
                if provider.covers(token)
            ]
            assert sorted(rows) == covered
            for j in covered:
                expected = unblocked(store, provider, self.PROBES[j])
                assert rows[j].dtype == expected.dtype == np.float32
                assert rows[j].tobytes() == expected.tobytes()
                single = index.probe_similarities(self.PROBES[j])
                assert single.tobytes() == expected.tobytes()
            index.extend([f"grown{i:04d}" for i in range(self.GROWN)])

    def test_blocks_are_block_major_without_one_row_tail(self, monkeypatch):
        monkeypatch.setattr(vector_index, "ROW_BLOCK", 100)
        provider, store = hashing_setup(301)
        index = ExactCosineIndex(store, provider)
        order = [
            (j, start, sims.shape[0])
            for j, start, sims in index.probe_many(["a", "b"])
        ]
        assert order == [
            (0, 0, 100), (1, 0, 100),
            (0, 100, 100), (1, 100, 100),
            (0, 200, 101), (1, 200, 101),
        ]

    def test_uncovered_and_empty_give_none(self, setup):
        provider, store = setup
        index = ExactCosineIndex(store, provider)
        assert index.probe_similarities("ghost") is None
        assert list(index.probe_many(["ghost"])) == []
        empty = ExactCosineIndex(
            VectorStore(HashingEmbeddingProvider(dim=8), []),
            HashingEmbeddingProvider(dim=8),
        )
        assert empty.probe_similarities("x") is None
        assert list(empty.probe_many(["x", "y"])) == []
