"""Tests for cosine similarity over embedding providers."""

import numpy as np
import pytest

from repro.embedding import (
    HashingEmbeddingProvider,
    SyntheticEmbeddingModel,
)
from repro.sim import CosineSimilarity


@pytest.fixture(scope="module")
def clustered_sim():
    model = SyntheticEmbeddingModel(
        dim=64,
        clusters={"city": ["bigapple", "newyorkcity", "gotham"]},
        cluster_similarity=0.9,
        oov_tokens={"mystery"},
    )
    return CosineSimilarity(model)


class TestIdentityAndOOVRules:
    def test_identical_tokens_score_one(self, clustered_sim):
        assert clustered_sim.score("anything", "anything") == 1.0

    def test_identical_oov_tokens_score_one(self, clustered_sim):
        # The paper's OOV rule (§V): identical out-of-vocabulary tokens
        # still count as exact matches.
        assert clustered_sim.score("mystery", "mystery") == 1.0

    def test_oov_vs_other_scores_zero(self, clustered_sim):
        assert clustered_sim.score("mystery", "bigapple") == 0.0

    def test_cluster_members_score_high(self, clustered_sim):
        assert clustered_sim.score("bigapple", "newyorkcity") > 0.7

    def test_unrelated_tokens_score_low(self, clustered_sim):
        assert clustered_sim.score("bigapple", "zebra") < 0.5

    def test_scores_clamped_non_negative(self, clustered_sim):
        for other in ("zebra", "qwerty", "asdfgh", "yuiop"):
            assert clustered_sim.score("bigapple", other) >= 0.0

    def test_symmetry(self, clustered_sim):
        a = clustered_sim.score("bigapple", "gotham")
        b = clustered_sim.score("gotham", "bigapple")
        assert a == pytest.approx(b)


class TestMatrix:
    def test_matrix_matches_pairwise(self, clustered_sim):
        rows = ["bigapple", "mystery", "zebra"]
        cols = ["newyorkcity", "mystery", "zebra", "bigapple"]
        matrix = clustered_sim.matrix(rows, cols)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert matrix[i, j] == pytest.approx(
                    clustered_sim.score(a, b), rel=1e-5, abs=1e-6
                )

    def test_identical_rule_in_matrix(self, clustered_sim):
        matrix = clustered_sim.matrix(["mystery"], ["mystery"])
        assert matrix[0, 0] == 1.0

    def test_matrix_range(self, clustered_sim):
        matrix = clustered_sim.matrix(
            ["bigapple", "gotham"], ["newyorkcity", "zebra"]
        )
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 1.0)


class TestWithHashingProvider:
    def test_typo_pairs_score_higher_than_unrelated(self):
        sim = CosineSimilarity(HashingEmbeddingProvider(dim=64))
        typo = sim.score("blaine", "blain")
        unrelated = sim.score("blaine", "xylophone")
        assert typo > unrelated

    def test_unit_cache_consistency(self):
        sim = CosineSimilarity(HashingEmbeddingProvider(dim=32))
        first = sim.score("alpha", "beta")
        second = sim.score("alpha", "beta")
        assert first == second


class TestStoreBacked:
    """A VectorStore-backed sim is bitwise identical to the provider path."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.embedding.provider import VectorStore

        provider = HashingEmbeddingProvider(dim=32)
        vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
        store = VectorStore(provider, vocab)
        return CosineSimilarity(provider), CosineSimilarity(
            provider, store=store
        ), vocab

    def test_scores_bitwise_identical(self, pair):
        plain, backed, vocab = pair
        for a in vocab:
            for b in vocab + ["offvocab"]:
                assert backed.score(a, b) == plain.score(a, b)

    def test_unit_rows_bitwise_identical(self, pair):
        plain, backed, vocab = pair
        tokens = vocab + ["offvocab"]
        assert backed.unit_rows(tokens).tobytes() == (
            plain.unit_rows(tokens).tobytes()
        )

    def test_store_row_is_a_view_not_a_copy(self, pair):
        _, backed, vocab = pair
        vec = backed._unit_vector(vocab[0])
        assert vec.base is not None

    def test_oov_falls_back_to_provider(self, pair):
        _, backed, _ = pair
        # "offvocab" is covered by the hashing provider but absent from
        # the store's vocabulary — it must still resolve via the
        # provider, not come back as None.
        assert backed._unit_vector("offvocab") is not None


class TestTableRowsGather:
    """``table_rows`` gathers store rows in one step and is bytes-equal
    to stacking ``unit_rows`` token by token."""

    def test_gather_equals_stacking_with_oov_and_query_only_tokens(self):
        from repro.embedding.provider import VectorStore
        from repro.index.interning import TokenTable

        provider = SyntheticEmbeddingModel(
            dim=16,
            clusters={"c": ["a1", "a2", "a3"]},
            cluster_similarity=0.9,
            oov_tokens={"ghost"},
        )
        # The store holds a query-only token the table lacks; the table
        # holds tokens the store lacks: "a3" and "late" (provider path)
        # and the uncovered "ghost" (zero row).
        store = VectorStore(provider, ["a1", "a2", "b", "query_only"])
        table = TokenTable.from_vocabulary(
            ["a1", "a2", "a3", "b", "ghost", "late"]
        )
        backed = CosineSimilarity(provider, store=store)
        plain = CosineSimilarity(provider)
        ids = np.array([5, 0, 4, 2, 3, 0, 1], dtype=np.int64)
        tokens = [table.tokens[i] for i in ids.tolist()]
        stacked = plain.unit_rows(tokens)
        assert stacked.dtype == np.float32
        assert backed.table_rows(table, ids).tobytes() == stacked.tobytes()
        assert backed.unit_rows(tokens).tobytes() == stacked.tobytes()
        assert plain.table_rows(table, ids).tobytes() == stacked.tobytes()

        # The store owns one map pair, cached per (table, store size): a
        # grown store refreshes both, and "late" is then gathered from
        # its store row.
        before = store.table_maps(table)
        assert store.table_maps(table)[1] is before[1]
        store.extend(["late"])
        assert backed.table_rows(table, ids).tobytes() == stacked.tobytes()
        late = int(table.encode(["late"])[0])
        row_ids, rows = store.table_maps(table)
        assert rows[late] == store.row_of("late")
        assert row_ids[store.row_of("late")] == late

    def test_store_less_rows_are_cached_per_table(self):
        """Without a store, the rows are stacked once per table object
        and gathered after that, bitwise what ``unit_rows`` stacks; a new
        table starts a new cache."""
        from repro.index.interning import TokenTable

        provider = SyntheticEmbeddingModel(
            dim=16,
            clusters={"c": ["a1", "a2", "a3"]},
            cluster_similarity=0.9,
            oov_tokens={"ghost"},
        )
        sim = CosineSimilarity(provider)
        oracle = CosineSimilarity(provider)
        table = TokenTable.from_vocabulary(["a1", "a2", "a3", "b", "ghost"])

        def expected(table, ids):
            return oracle.unit_rows([table.tokens[i] for i in ids.tolist()])

        first = np.array([4, 0, 2, 0], dtype=np.int64)
        assert sim.table_rows(table, first).tobytes() == (
            expected(table, first).tobytes()
        )
        # A later call reads the cached rows and stacks only the ids it
        # has not seen.
        stacked = []
        sim.unit_rows = lambda tokens: stacked.append(tokens) or (
            oracle.unit_rows(tokens)
        )
        every = np.arange(len(table), dtype=np.int64)[::-1].copy()
        assert sim.table_rows(table, every).tobytes() == (
            expected(table, every).tobytes()
        )
        assert stacked == [["b", "a2"]]
        assert sim.table_rows(table, first).tobytes() == (
            expected(table, first).tobytes()
        )
        assert stacked == [["b", "a2"]]

        # A new table, with ids that mean other tokens: no stale row.
        renamed = TokenTable.from_vocabulary(["a0", "a1", "a2", "a3", "z"])
        assert sim.table_rows(renamed, every).tobytes() == (
            expected(renamed, every).tobytes()
        )
        assert sim.table_rows(table, every).tobytes() == (
            expected(table, every).tobytes()
        )
        assert sim.table_rows(table, every[:0]).shape == (0, 16)
