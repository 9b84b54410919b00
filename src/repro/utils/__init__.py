"""Shared utilities: phase timing, memory accounting, seeded randomness."""

from repro.utils.memory import MemoryLedger
from repro.utils.rng import make_rng, stable_hash, token_rng
from repro.utils.timer import PhaseTimer

__all__ = [
    "MemoryLedger",
    "PhaseTimer",
    "make_rng",
    "stable_hash",
    "token_rng",
]
