"""Tests for search statistics accounting."""

import dataclasses

from repro.core import SearchStats


def filled_stats() -> SearchStats:
    stats = SearchStats()
    stats.stream_tuples = 10
    stats.candidates = 100
    stats.pruned_first_sight = 20
    stats.pruned_bucket = 30
    stats.no_em_accepted = 5
    stats.no_em_discarded = 25
    stats.em_early_terminated = 12
    stats.em_full = 8
    return stats


class TestDerivedCounters:
    def test_refinement_pruned(self):
        assert filled_stats().refinement_pruned == 50

    def test_no_em(self):
        assert filled_stats().no_em == 30

    def test_postprocessed(self):
        assert filled_stats().postprocessed == 50

    def test_consistency_holds(self):
        assert filled_stats().consistency_ok()

    def test_consistency_detects_leak(self):
        stats = filled_stats()
        stats.em_full -= 1
        assert not stats.consistency_ok()


class TestValidate:
    def test_consistent_stats_have_no_violations(self):
        assert filled_stats().validate() == []

    def test_funnel_leak_is_described(self):
        stats = filled_stats()
        stats.em_full -= 1
        (violation,) = stats.validate()
        assert "does not partition" in violation
        assert "candidates=100" in violation

    def test_negative_counter_is_named(self):
        stats = filled_stats()
        stats.verify_fallbacks = -1
        violations = stats.validate()
        assert any(
            "negative counter verify_fallbacks=-1" in v for v in violations
        )

    def test_every_counter_field_is_checked(self):
        for name in SearchStats._COUNTER_FIELDS:
            stats = SearchStats()
            setattr(stats, name, -1)
            assert any(name in v for v in stats.validate()), name


class TestFunnel:
    def test_funnel_is_plain_ints(self):
        funnel = filled_stats().funnel()
        assert funnel["candidates"] == 100
        assert funnel["refinement_pruned"] == 50
        assert all(type(v) is int for v in funnel.values())

    def test_merged_funnel_equals_partition_sums(self):
        parts = [filled_stats(), filled_stats(), filled_stats()]
        merged = SearchStats()
        for part in parts:
            merged.merge(part)
        merged_funnel = merged.funnel()
        for key, value in merged_funnel.items():
            assert value == sum(p.funnel()[key] for p in parts), key


class TestMerge:
    def test_counters_accumulate(self):
        a, b = filled_stats(), filled_stats()
        a.merge(b)
        assert a.candidates == 200
        assert a.refinement_pruned == 100
        assert a.consistency_ok()

    def test_every_int_field_is_a_merged_counter(self):
        """A new counter that is not listed would be silently dropped
        from partition, shard and cluster merges."""
        int_fields = {
            field.name
            for field in dataclasses.fields(SearchStats)
            if field.type in (int, "int")
        }
        assert int_fields == set(SearchStats._COUNTER_FIELDS)
        assert len(SearchStats._COUNTER_FIELDS) == len(int_fields)
        a, b = SearchStats(), SearchStats()
        for offset, name in enumerate(SearchStats._COUNTER_FIELDS):
            setattr(a, name, 1)
            setattr(b, name, offset + 2)
        a.merge(b)
        for offset, name in enumerate(SearchStats._COUNTER_FIELDS):
            assert getattr(a, name) == offset + 3, name

    def test_final_similarity_takes_max(self):
        a, b = SearchStats(), SearchStats()
        a.final_stream_similarity = 0.5
        b.final_stream_similarity = 0.9
        a.merge(b)
        assert a.final_stream_similarity == 0.9

    def test_timers_merge(self):
        a, b = SearchStats(), SearchStats()
        with b.timer.phase("refinement"):
            pass
        a.merge(b)
        assert a.timer.seconds("refinement") >= 0.0
        assert "refinement" in a.timer.totals

    def test_memory_merges_peaks(self):
        a, b = SearchStats(), SearchStats()
        a.memory.record("x", 100)
        b.memory.record("x", 300)
        b.memory.record("y", 50)
        a.merge(b)
        assert a.memory.breakdown() == {"x": 300, "y": 50}
