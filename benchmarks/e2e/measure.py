"""Estimators and process probes shared by the four workloads.

The timed phase of a workload is ``passes`` identical passes over a
fixed list of op slots. On a shared box noise only ever adds time, so
every estimator starts from each slot's *fastest* pass:

* ``search_p50_ms`` — median over slots of the slot's fastest search;
* ``search_qps`` — successful searches divided by the sum over slots of
  the slot's fastest wall time (mutation included), i.e. the rate of a
  pass in which every slot ran as fast as it was ever seen to run.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np


def slot_floors(per_pass: list[np.ndarray]) -> np.ndarray:
    """Fastest observation of every slot across passes."""
    return np.min(np.stack(per_pass), axis=0)


def search_p50_ms(latency_per_pass: list[np.ndarray]) -> float:
    return float(np.median(slot_floors(latency_per_pass))) * 1e3


def search_qps(
    busy_per_pass: list[np.ndarray], searches: int, failed: int
) -> float:
    return (searches - failed) / float(slot_floors(busy_per_pass).sum())


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_kb() -> dict[str, int]:
    """Current VmRSS / RssAnon / RssFile of this process, in KB."""
    out = {"VmRSS": 0, "RssAnon": 0, "RssFile": 0}
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in out:
                out[key] = int(value.split()[0])
    return out


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the whole box from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total else 0.0


_CALIB_A = np.random.default_rng(0).random((400, 64), dtype=np.float32)


def calibration_seconds() -> float:
    """A fixed NumPy + Python kernel, fastest of five. Timed before the
    first and after the last pass: drift between the two says the box
    changed speed under the run. It explains a noisy run; it never
    normalises a reported number."""
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        float((_CALIB_A @ _CALIB_A.T).sum())
        best = min(best, time.perf_counter() - started)
    return best
