"""Tests for the iUB bucket structure, including equivalence of the
bucket sweep with the naive per-candidate filter."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.core.refinement_oracle import BucketStore
from repro.errors import InvalidParameterError


class TestBucketStoreBasics:
    def test_insert_and_contains(self):
        store = BucketStore()
        store.insert(1, m_remaining=3, matched_score=0.5)
        assert 1 in store
        assert len(store) == 1

    def test_double_insert_rejected(self):
        store = BucketStore()
        store.insert(1, 3, 0.5)
        with pytest.raises(InvalidParameterError):
            store.insert(1, 2, 0.6)

    def test_remove(self):
        store = BucketStore()
        store.insert(1, 3, 0.5)
        store.remove(1)
        assert 1 not in store
        assert store.bucket_keys() == []

    def test_move_changes_bucket(self):
        store = BucketStore()
        store.insert(1, 3, 0.5)
        store.move(1, 2, 1.4)
        assert store.bucket_keys() == [2]

    def test_bucket_keys_sorted(self):
        store = BucketStore()
        store.insert(1, 5, 0.1)
        store.insert(2, 2, 0.2)
        store.insert(3, 9, 0.3)
        assert store.bucket_keys() == [2, 5, 9]


class TestSweep:
    def test_prunes_only_below_threshold(self):
        store = BucketStore()
        # m=2: prunable iff S < theta - 2s = 3 - 1.0 = 2.0
        store.insert(1, 2, 1.9)
        store.insert(2, 2, 2.1)
        pruned = store.sweep(stream_similarity=0.5, theta_lb=3.0)
        assert pruned == [1]
        assert 2 in store

    def test_zero_theta_never_prunes(self):
        store = BucketStore()
        store.insert(1, 2, 0.0)
        assert store.sweep(0.5, 0.0) == []

    def test_scan_stops_at_first_survivor(self):
        store = BucketStore()
        store.insert(1, 1, 0.1)
        store.insert(2, 1, 5.0)
        store.insert(3, 1, 0.2)  # behind the survivor in sorted order? No:
        # bucket order is ascending S: [0.1, 0.2, 5.0]; both 0.1 and 0.2
        # are prunable for theta=2, s=0.5 (threshold 1.5).
        pruned = store.sweep(0.5, 2.0)
        assert sorted(pruned) == [1, 3]
        assert 2 in store

    def test_keep_veto(self):
        store = BucketStore()
        store.insert(1, 1, 0.1)
        store.insert(2, 1, 0.2)
        pruned = store.sweep(0.5, 2.0, keep=lambda sid: sid == 1)
        assert pruned == [2]
        assert 1 in store

    def test_empty_bucket_removed_after_sweep(self):
        store = BucketStore()
        store.insert(1, 1, 0.0)
        store.sweep(0.1, 10.0)
        assert store.bucket_keys() == []


entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),      # m_remaining
        st.floats(min_value=0.0, max_value=5.0, width=32),  # S_i
    ),
    min_size=0,
    max_size=30,
)


class TestSweepMatchesNaiveFilter:
    @settings(max_examples=150, deadline=None)
    @given(
        entries,
        st.floats(min_value=0.0, max_value=1.0, width=32),
        st.floats(min_value=0.0, max_value=8.0, width=32),
    )
    def test_equivalence(self, items, similarity, theta):
        """The bucket sweep prunes exactly the candidates the naive
        'update everyone, prune if S + m*s < theta' filter would."""
        store = BucketStore()
        for set_id, (m_remaining, score) in enumerate(items):
            store.insert(set_id, m_remaining, score)
        pruned = set(store.sweep(similarity, theta))
        expected = {
            set_id
            for set_id, (m, score) in enumerate(items)
            if theta > 0.0 and score < theta - m * similarity
        }
        assert pruned == expected
        # Survivors all remain findable.
        for set_id, _ in enumerate(items):
            assert (set_id in store) == (set_id not in pruned)
