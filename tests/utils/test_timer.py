"""Tests for phase timers."""

import time

import pytest

from repro.utils import PhaseTimer
from repro.utils.timer import Stopwatch, timed


class TestPhaseTimer:
    def test_records_elapsed_time(self):
        timer = PhaseTimer()
        with timer.phase("work"):
            time.sleep(0.01)
        assert timer.seconds("work") >= 0.009

    def test_accumulates_across_blocks(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("work"):
                pass
        assert timer.seconds("work") > 0.0

    def test_unknown_phase_is_zero(self):
        assert PhaseTimer().seconds("nothing") == 0.0

    def test_total_sums_phases(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert timer.total == pytest.approx(
            timer.seconds("a") + timer.seconds("b")
        )

    def test_records_even_on_exception(self):
        timer = PhaseTimer()
        with pytest.raises(ValueError):
            with timer.phase("risky"):
                raise ValueError
        assert "risky" in timer.totals

    def test_breakdown_fractions_sum_to_one(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            time.sleep(0.002)
        with timer.phase("b"):
            time.sleep(0.002)
        breakdown = timer.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_breakdown_empty(self):
        assert PhaseTimer().breakdown() == {}

    def test_merge(self):
        a, b = PhaseTimer(), PhaseTimer()
        a.totals["x"] = 1.0
        b.totals["x"] = 2.0
        b.totals["y"] = 3.0
        a.merge(b)
        assert a.totals == {"x": 3.0, "y": 3.0}

    def test_add_is_the_one_accumulate_point(self):
        """``phase`` blocks, direct ``add`` and ``merge`` all count
        calls alongside seconds."""
        a, b = PhaseTimer(), PhaseTimer()
        a.add("x", 1.5)
        with a.phase("x"):
            pass
        b.add("x", 2.0)
        b.add("y", 0.25)
        b.add("y", 0.25)
        a.merge(b)
        assert a.calls == {"x": 3, "y": 2}
        assert a.seconds("y") == 0.5
        assert a.seconds("x") >= 3.5


class TestStopwatch:
    def test_reads_an_injected_clock_and_freezes_on_stop(self):
        now = [10.0]
        watch = Stopwatch(lambda: now[0])
        now[0] = 12.5
        assert watch.seconds == 2.5
        assert watch.stop() == 2.5
        now[0] = 99.0
        assert watch.seconds == 2.5
        watch.restart()
        now[0] = 100.0
        assert watch.seconds == 1.0

    def test_timed_block_stops_on_exit(self):
        now = [0.0]
        with timed(lambda: now[0]) as watch:
            now[0] = 3.0
        now[0] = 8.0
        assert watch.seconds == 3.0
