"""Tests for top-k lists and the shared pruning threshold."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.topk import GlobalThreshold, ThetaLB, TopKList
from repro.errors import InvalidParameterError


class TestTopKList:
    def test_k_validation(self):
        with pytest.raises(InvalidParameterError):
            TopKList(0)

    def test_bottom_zero_until_filled(self):
        topk = TopKList(3)
        topk.offer(1, 5.0)
        topk.offer(2, 4.0)
        assert topk.bottom() == 0.0
        topk.offer(3, 3.0)
        assert topk.bottom() == 3.0

    def test_eviction_of_minimum(self):
        topk = TopKList(2)
        topk.offer(1, 1.0)
        topk.offer(2, 2.0)
        assert topk.offer(3, 3.0)
        assert 1 not in topk
        assert topk.bottom() == 2.0

    def test_low_offer_rejected_when_full(self):
        topk = TopKList(2)
        topk.offer(1, 2.0)
        topk.offer(2, 3.0)
        assert not topk.offer(3, 1.0)
        assert 3 not in topk

    def test_values_only_move_upward(self):
        topk = TopKList(2)
        topk.offer(1, 2.0)
        assert not topk.offer(1, 1.0)
        assert topk.value_of(1) == 2.0
        assert topk.offer(1, 2.5)
        assert topk.value_of(1) == 2.5

    def test_items_descending(self):
        topk = TopKList(3)
        for set_id, value in [(1, 1.0), (2, 3.0), (3, 2.0)]:
            topk.offer(set_id, value)
        assert list(topk.items()) == [(2, 3.0), (3, 2.0), (1, 1.0)]

    def test_remove(self):
        topk = TopKList(2)
        topk.offer(1, 1.0)
        topk.remove(1)
        assert len(topk) == 0
        topk.remove(99)  # absent ids are a no-op

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.floats(min_value=0.0, max_value=10.0, width=32),
            ),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_bottom_matches_naive_kth_largest(self, offers, k):
        topk = TopKList(k)
        best: dict[int, float] = {}
        for set_id, value in offers:
            topk.offer(set_id, value)
            if value > best.get(set_id, float("-inf")):
                best[set_id] = value
        values = sorted(best.values(), reverse=True)
        expected = values[k - 1] if len(values) >= k else 0.0
        assert topk.bottom() == pytest.approx(expected)


class _TopKByDefinition:
    """The list with nothing cached: the eviction victim and the bottom
    are recomputed from the entries on every call."""

    def __init__(self, k):
        self.k = k
        self.values = {}

    def offer(self, set_id, value):
        current = self.values.get(set_id)
        if current is not None:
            if value <= current:
                return False
            self.values[set_id] = value
            return True
        if len(self.values) >= self.k:
            victim, lowest = min(
                self.values.items(), key=lambda item: (item[1], -item[0])
            )
            if value <= lowest:
                return False
            del self.values[victim]
        self.values[set_id] = value
        return True

    def remove(self, set_id):
        self.values.pop(set_id, None)

    def bottom(self):
        if len(self.values) < self.k:
            return 0.0
        return min(self.values.values())


class TestMaintainedBottom:
    """``bottom()`` is kept current by ``offer``/``remove`` instead of
    being recomputed per read; it must stay the definition's value, and
    evictions must pick the definition's victim."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(
            st.tuples(
                st.sampled_from(["offer", "offer", "offer", "remove"]),
                st.integers(min_value=0, max_value=7),
                # Few distinct values: ties, re-offers of a held id at
                # its own value, and offers equal to the bottom.
                st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]),
            ),
            max_size=60,
        ),
    )
    def test_bottom_and_evictions_follow_the_definition(self, k, ops):
        topk = TopKList(k)
        model = _TopKByDefinition(k)
        for op, set_id, value in ops:
            if op == "offer":
                assert topk.offer(set_id, value) == model.offer(set_id, value)
            else:
                topk.remove(set_id)
                model.remove(set_id)
            assert topk.bottom() == model.bottom()
            assert dict(topk.items()) == model.values
            assert ThetaLB(topk).value == model.bottom()

    def test_raising_the_bottom_entry_moves_the_bottom(self):
        topk = TopKList(2)
        topk.offer(1, 1.0)
        topk.offer(2, 2.0)
        assert topk.bottom() == 1.0
        assert topk.offer(1, 3.0)
        assert topk.bottom() == 2.0

    def test_remove_unfills_the_list(self):
        topk = TopKList(2)
        topk.offer(1, 1.0)
        topk.offer(2, 2.0)
        topk.remove(2)
        assert topk.bottom() == 0.0
        topk.offer(3, 0.5)
        assert topk.bottom() == 0.5

    def test_ties_evict_the_larger_id(self):
        topk = TopKList(2)
        topk.offer(1, 1.0)
        topk.offer(5, 1.0)
        assert topk.offer(3, 2.0)
        assert 5 not in topk and 1 in topk
        assert topk.bottom() == 1.0


class TestGlobalThreshold:
    def test_monotone_max(self):
        shared = GlobalThreshold()
        assert shared.raise_to(2.0) == 2.0
        assert shared.raise_to(1.0) == 2.0
        assert shared.value == 2.0

    def test_thread_safety_under_contention(self):
        shared = GlobalThreshold()

        def push(base):
            for i in range(500):
                shared.raise_to(base + i * 0.001)

        threads = [
            threading.Thread(target=push, args=(b,)) for b in (0.0, 0.2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert shared.value == pytest.approx(0.699, abs=1e-9)


class TestThetaLB:
    def test_combines_local_and_shared(self):
        llb = TopKList(1)
        shared = GlobalThreshold()
        theta = ThetaLB(llb, shared)
        assert theta.value == 0.0
        theta.offer(1, 2.0)
        assert theta.value == 2.0
        shared.raise_to(5.0)
        assert theta.value == 5.0

    def test_publish_pushes_local_bottom(self):
        llb = TopKList(1)
        shared = GlobalThreshold()
        theta = ThetaLB(llb, shared)
        theta.offer(7, 3.0)
        assert shared.value == 3.0

    def test_without_shared(self):
        theta = ThetaLB(TopKList(1))
        theta.offer(1, 1.5)
        assert theta.value == 1.5

    def test_monotone_value(self):
        theta = ThetaLB(TopKList(2), GlobalThreshold())
        seen = [theta.value]
        for set_id, value in [(1, 1.0), (2, 0.5), (3, 2.0), (4, 0.1)]:
            theta.offer(set_id, value)
            seen.append(theta.value)
        assert seen == sorted(seen)
