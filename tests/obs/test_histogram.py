"""The one bucketed histogram and the fixed-size reservoir."""

import math

import pytest

from repro.obs import Reservoir, StreamingHistogram


class TestStreamingHistogram:
    def test_value_on_an_edge_lands_in_that_bucket(self):
        hist = StreamingHistogram((0.1, 1.0))
        hist.observe(0.1)
        hist.observe(1.0)
        assert hist.counts == [1, 1]
        assert hist.overflow == 0

    def test_values_above_the_last_edge_overflow(self):
        hist = StreamingHistogram((0.1, 1.0))
        hist.observe_many([0.05, 5.0, 7.0])
        assert hist.counts == [1, 0]
        assert hist.overflow == 2
        assert hist.sum == pytest.approx(12.05)

    def test_cumulative_ends_at_count(self):
        hist = StreamingHistogram((0.1, 1.0))
        hist.observe_many([0.05, 0.5, 0.5, 5.0])
        assert hist.cumulative() == [(0.1, 1), (1.0, 3), (math.inf, 4)]
        assert hist.cumulative()[-1][1] == hist.count

    def test_rejects_empty_or_unsorted_bounds(self):
        with pytest.raises(ValueError, match="at least one"):
            StreamingHistogram(())
        with pytest.raises(ValueError, match="ascending"):
            StreamingHistogram((1.0, 1.0))

    def test_merge_adds_and_rejects_mismatched_bounds(self):
        a, b = StreamingHistogram((0.1, 1.0)), StreamingHistogram((0.1, 1.0))
        a.observe_many([0.05, 2.0])
        b.observe_many([0.5, 0.5, 3.0])
        a.merge(b)
        assert a.counts == [1, 2]
        assert a.overflow == 2
        assert a.count == 5
        assert a.sum == pytest.approx(6.05)
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(StreamingHistogram((0.1, 2.0)))

    def test_state_round_trip(self):
        hist = StreamingHistogram((0.1, 1.0))
        hist.observe_many([0.05, 0.5, 5.0])
        state = hist.state()
        assert state == {
            "bounds": [0.1, 1.0],
            "counts": [1, 1],
            "overflow": 1,
            "count": 3,
            "sum": pytest.approx(5.55),
        }
        restored = StreamingHistogram.from_state(state)
        assert restored.state() == state
        assert restored.cumulative() == hist.cumulative()

    def test_from_state_rejects_mismatched_counts(self):
        with pytest.raises(ValueError, match="mismatch"):
            StreamingHistogram.from_state(
                {"bounds": [0.1, 1.0], "counts": [1], "count": 1, "sum": 0.0}
            )

    def test_quantile_on_empty_and_overflow(self):
        hist = StreamingHistogram((0.1, 1.0))
        assert hist.quantile(0.99) == 0.0
        hist.observe_many([0.05, 0.05, 0.5, 9.0])
        assert hist.quantile(0.5) == 0.1
        assert hist.quantile(0.75) == 1.0
        # Overflow observations report the last finite edge.
        assert hist.quantile(1.0) == 1.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestReservoir:
    def test_exact_below_size(self):
        reservoir = Reservoir(100)
        for value in range(10, 0, -1):
            reservoir.observe(float(value))
        assert len(reservoir) == 10
        assert reservoir.percentiles(0.0, 0.5, 0.99, 1.0) == [
            1.0, 6.0, 10.0, 10.0,
        ]

    def test_empty_reports_zero_per_quantile(self):
        assert Reservoir(4).percentiles(0.5, 0.99) == [0.0, 0.0]

    def test_bounded_and_seeded_past_size(self):
        a, b = Reservoir(16), Reservoir(16)
        for value in range(1000):
            a.observe(float(value))
            b.observe(float(value))
        assert len(a) == 16 and a.seen == 1000
        qs = (0.1, 0.5, 0.9)
        assert a.percentiles(*qs) == b.percentiles(*qs)
        # A uniform sample of 0..999, not the first or last 16 values.
        assert 16 < a.percentiles(0.5)[0] < 984

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            Reservoir(0)
