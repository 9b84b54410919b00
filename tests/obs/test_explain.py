"""The EXPLAIN report builder and renderer: funnel extraction,
partition-sum verification, violation reporting vs strict raising."""

import json

import pytest

from repro.core.stats import SearchStats
from repro.errors import StatsInvariantError
from repro.obs.explain import FUNNEL_ROWS, build_explain, render_explain


def partition(candidates=50, **overrides) -> SearchStats:
    """One internally consistent partition worth of stats."""
    stats = SearchStats()
    stats.candidates = candidates
    stats.pruned_first_sight = candidates // 5
    stats.pruned_bucket = candidates // 10
    stats.no_em_accepted = 2
    stats.no_em_discarded = 3
    stats.em_early_terminated = 4
    remainder = (
        candidates
        - stats.refinement_pruned
        - stats.no_em
        - stats.em_early_terminated
    )
    stats.em_full = remainder
    stats.stream_tuples = candidates * 2
    stats.verify_matmul_cells = 100
    stats.verify_matmul_flops = 200
    stats.verify_bytes_scanned = 400
    for name, value in overrides.items():
        setattr(stats, name, value)
    return stats


def merged_from(parts):
    merged = SearchStats()
    for part in parts:
        merged.merge(part)
    return merged


class TestBuildExplain:
    def test_consistent_partitions_produce_a_clean_report(self):
        parts = [partition(40), partition(60)]
        report = build_explain(
            stats=merged_from(parts),
            partition_stats=parts,
            request_id="q1",
            trace_id="t-123",
            k=10,
            alpha=0.8,
            seconds=0.25,
            engine={"backend": "engine-pool"},
        )
        assert report["violations"] == []
        assert report["partitions_consistent"] is True
        assert report["funnel"]["candidates"] == 100
        assert report["funnel"]["postprocessed"] == 100 - (
            report["funnel"]["pruned_first_sight"]
            + report["funnel"]["pruned_bucket"]
        )
        assert len(report["partitions"]) == 2
        for key in FUNNEL_ROWS:
            assert report["funnel"][key] == sum(
                p[key] for p in report["partitions"]
            )
        assert report["trace_id"] == "t-123"
        assert report["verify"]["matmul_flops"] == 400
        json.dumps(report)  # the wire payload must serialize as-is

    def test_em_block_reports_initial_prunes(self):
        """``em.initial_pruned``: the early terminations that cost no
        solver work — summed over partitions, outside the funnel."""
        parts = [
            partition(40, em_initial_pruned=3, em_label_updates=5),
            partition(60, em_initial_pruned=4),
        ]
        report = build_explain(stats=merged_from(parts), partition_stats=parts)
        assert report["violations"] == []
        assert report["em"] == {
            "initial_pruned": 7, "label_updates": 5, "resolution_em": 0,
        }
        assert "em: 7 of 8 early terminations" in render_explain(report)
        over = partition(40, em_initial_pruned=5)  # only 4 terminated early
        assert any(
            "em_initial_pruned" in problem
            for problem in build_explain(stats=over, strict=False)["violations"]
        )

    def test_partition_sum_mismatch_is_a_violation(self):
        parts = [partition(40), partition(60)]
        merged = merged_from(parts)
        # Drop one partial's worth of candidates from the merge — the
        # cluster-accumulation bug class this check exists to catch.
        merged.candidates -= 40
        merged.em_full -= 40
        report = build_explain(
            stats=merged, partition_stats=parts, strict=False
        )
        assert report["partitions_consistent"] is False
        assert any(
            "merged candidates=60" in problem
            for problem in report["violations"]
        )

    def test_funnel_leak_reports_and_raises_under_strict(self):
        broken = partition(50, em_full=0)
        report = build_explain(stats=broken, strict=False)
        assert any(
            "does not partition" in problem
            for problem in report["violations"]
        )
        with pytest.raises(StatsInvariantError, match="violate"):
            build_explain(stats=broken, strict=True)

    def test_strict_defaults_to_raising_under_pytest(self):
        # PYTEST_CURRENT_TEST is set right now, so strict=None raises —
        # the satellite contract: production reports, tests fail loudly.
        with pytest.raises(StatsInvariantError):
            build_explain(stats=partition(50, em_full=0))

    def test_broken_partition_is_attributed_by_index(self):
        broken = partition(60)
        broken.candidates = 61  # one phantom candidate in partition 1
        parts = [partition(40), broken]
        report = build_explain(
            stats=merged_from(parts), partition_stats=parts, strict=False
        )
        assert any(
            problem.startswith("partition 1:")
            for problem in report["violations"]
        )

    def test_missing_stats_degrades_to_attribution_only(self):
        report = build_explain(
            stats=None, request_id="q9", cached=True, strict=True
        )
        assert report["funnel"] is None
        assert report["cache"] == {"hit": True, "deduplicated": False}
        assert report["violations"] == ["no stats available for this response"]

    def test_cache_and_timeout_attribution(self):
        report = build_explain(
            stats=partition(),
            cached=True,
            deduplicated=True,
            timed_out=True,
        )
        assert report["cache"] == {"hit": True, "deduplicated": True}
        assert report["timed_out"] is True


class TestRenderExplain:
    def test_table_carries_funnel_partitions_and_phases(self):
        parts = [partition(40), partition(60)]
        merged = merged_from(parts)
        with merged.timer.phase("refinement"):
            pass
        report = build_explain(
            stats=merged,
            partition_stats=parts,
            request_id="q1",
            trace_id="t-1",
            k=10,
            alpha=0.8,
            engine={"backend": "engine-pool", "shards": 2},
        )
        text = render_explain(report)
        assert "request q1" in text
        assert "backend=engine-pool" in text.splitlines()[0]
        assert "trace t-1" in text
        assert "merged" in text and "p0" in text and "p1" in text
        for key in FUNNEL_ROWS:
            assert key in text
        assert "refinement" in text
        assert "VIOLATION" not in text

    def test_violations_and_cache_markers_render(self):
        report = build_explain(
            stats=partition(50, em_full=0), cached=True, strict=False
        )
        text = render_explain(report)
        assert "[cache hit]" in text
        assert "VIOLATION:" in text

    def test_degraded_report_renders(self):
        text = render_explain(build_explain(stats=None, strict=True))
        assert "(no stats available)" in text
