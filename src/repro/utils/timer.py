"""The repo's timing primitives, in one dependency-free module.

:class:`PhaseTimer` breaks a search down into refinement and
post-processing time, mirroring the per-phase reporting of the paper
(Fig. 5b/5c, 6b/6c, Table III); :class:`Stopwatch`/:func:`timed`
measure one duration. Everything reads :data:`MONOTONIC`, so the clock
choice (and its injectability in tests) lives in exactly one place.
This module imports nothing from ``repro``: ``core/stats.py`` needs it
and ``repro.obs`` imports ``core/stats.py``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: The monotonic clock every duration in the repo is measured on.
MONOTONIC: Callable[[], float] = time.perf_counter


class Stopwatch:
    """A started monotonic stopwatch.

    ``Stopwatch()`` starts immediately; :meth:`stop` freezes
    ``seconds`` and returns it, while reading :attr:`seconds` before
    stopping reports the running elapsed time.  ``clock`` is
    injectable for deterministic tests.
    """

    __slots__ = ("_clock", "_started", "_stopped")

    def __init__(self, clock: Callable[[], float] = MONOTONIC) -> None:
        self._clock = clock
        self._started = clock()
        self._stopped: float | None = None

    @property
    def seconds(self) -> float:
        if self._stopped is not None:
            return self._stopped - self._started
        return self._clock() - self._started

    def stop(self) -> float:
        if self._stopped is None:
            self._stopped = self._clock()
        return self._stopped - self._started

    def restart(self) -> None:
        self._started = self._clock()
        self._stopped = None


@contextmanager
def timed(clock: Callable[[], float] = MONOTONIC) -> Iterator[Stopwatch]:
    """``with timed() as watch: ...`` — ``watch.seconds`` is the block's
    duration after exit (and the running elapsed time inside it)."""
    watch = Stopwatch(clock)
    try:
        yield watch
    finally:
        watch.stop()


@dataclass
class PhaseTimer:
    """Accumulates wall-clock seconds and call counts per named phase.

    >>> timer = PhaseTimer()
    >>> with timer.phase("refinement"):
    ...     pass
    >>> timer.seconds("refinement") >= 0.0
    True
    >>> timer.calls["refinement"]
    1
    """

    totals: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """The one accumulate point: ``seconds`` spent in ``name`` over
        ``calls`` timed blocks."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + calls

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block of code and add it to the running total for ``name``."""
        start = MONOTONIC()
        try:
            yield
        finally:
            self.add(name, MONOTONIC() - start)

    def seconds(self, name: str) -> float:
        """Total seconds recorded for ``name`` (0.0 if never timed)."""
        return self.totals.get(name, 0.0)

    @property
    def total(self) -> float:
        """Sum over all phases."""
        return sum(self.totals.values())

    def breakdown(self) -> dict[str, float]:
        """Fraction of total time per phase; empty if nothing was timed."""
        if not self.totals:
            return {}
        total = self.total
        if total == 0.0:
            # All phases were instantaneous; report uniform shares.
            share = 1.0 / len(self.totals)
            return {name: share for name in self.totals}
        return {name: spent / total for name, spent in self.totals.items()}

    def merge(self, other: "PhaseTimer") -> None:
        """Add another timer's totals into this one (used when merging
        per-partition timers)."""
        for name, spent in other.totals.items():
            self.add(name, spent, other.calls.get(name, 0))
