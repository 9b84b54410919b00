"""Tests for the memory ledger and the size-estimate helpers."""

import sys

import pytest

from repro.utils import MemoryLedger
from repro.utils.memory import container_bytes, tuple_bytes


class TestEstimateHelpers:
    def test_tuple_bytes_matches_the_interpreter(self):
        assert tuple_bytes(3) == sys.getsizeof((1.0, "a", None))

    def test_container_bytes_is_table_plus_entries(self):
        values = {i: float(i) for i in range(100)}
        assert container_bytes(values, 52) == sys.getsizeof(values) + 5200
        assert container_bytes([], 52) == sys.getsizeof([])


class TestMemoryLedger:
    def test_record_and_total(self):
        ledger = MemoryLedger()
        ledger.record("x", 120)
        ledger.record("y", 30)
        assert ledger.total_bytes == 150

    def test_keeps_peak(self):
        ledger = MemoryLedger()
        ledger.record("x", 100)
        ledger.record("x", 50)
        assert ledger.breakdown() == {"x": 100}

    def test_total_mb(self):
        ledger = MemoryLedger()
        ledger.record("x", 2 * 1024 * 1024)
        assert ledger.total_mb == pytest.approx(2.0)

    def test_merge_takes_peaks_per_name(self):
        a, b = MemoryLedger(), MemoryLedger()
        a.record("x", 10)
        b.record("x", 20)
        b.record("y", 5)
        a.merge(b)
        assert a.breakdown() == {"x": 20, "y": 5}
        assert set(a.names()) == {"x", "y"}
