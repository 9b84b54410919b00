"""Instrumentation for a single Koios search.

Every counter here backs a column of the paper's evaluation: candidate
counts and filter attribution (Tables II, IV, V), phase timings
(Fig. 5b/5c, 6b/6c), and memory footprints (Table III, Fig. 5d/6d).
The four resolution counters partition the candidate sets exactly the way
the paper's per-interval tables do:

``candidates == refinement_pruned + no_em + em_early_terminated + em_full``

``em_initial_pruned`` is outside that identity: it counts the subset of
``em_early_terminated`` that Lemma 8 ended on the *initial* labeling,
i.e. the matchings that were entered in the books but cost no solver
work — the sets the paper calls "pruned without requiring the expensive
graph matching" once refinement has already removed everything with
``UB < theta_lb``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.memory import MemoryLedger
from repro.utils.timer import PhaseTimer

REFINEMENT = "refinement"
POSTPROCESSING = "postprocessing"


@dataclass
class SearchStats:
    """Counters, timings, and memory for one query (or one partition)."""

    # -- stream --
    stream_tuples: int = 0
    final_stream_similarity: float = 0.0

    # -- refinement --
    candidates: int = 0
    pruned_first_sight: int = 0          # UB-Filter at discovery (Lemma 2)
    pruned_bucket: int = 0               # iUB-Filter bucket sweeps (Lemma 6)
    bucket_moves: int = 0
    observed_edges: int = 0
    discarded_edges: int = 0             # edges to already-matched nodes

    # -- post-processing --
    no_em_accepted: int = 0              # Lemma 7 acceptances
    no_em_discarded: int = 0             # UB < theta_lb discards without EM
    em_early_terminated: int = 0         # Lemma 8 aborts
    em_initial_pruned: int = 0           # ...of which on the initial labeling
    em_full: int = 0                     # completed Hungarian runs
    em_label_updates: int = 0            # total labeling improvements
    resolution_em: int = 0               # post-hoc exact scoring of results

    # -- verification engine accounting --
    # Cost attribution for the columnar verifier: cells of the shared
    # batched weight block, the FLOP estimate of computing it, the bytes
    # the phase scanned (the block, the batched row-maximum pass over
    # the posting arrays, the columns gathered for solver entries), and
    # candidates routed through per-candidate verification by the GEMM
    # drift guard. All zero for similarities without an embedding
    # matrix.
    verify_matmul_cells: int = 0
    verify_matmul_flops: int = 0
    verify_bytes_scanned: int = 0
    verify_fallbacks: int = 0

    timer: PhaseTimer = field(default_factory=PhaseTimer)
    memory: MemoryLedger = field(default_factory=MemoryLedger)

    # -- derived ------------------------------------------------------------

    @property
    def refinement_pruned(self) -> int:
        """Sets eliminated during refinement (the tables' iUB column)."""
        return self.pruned_first_sight + self.pruned_bucket

    @property
    def no_em(self) -> int:
        """Sets resolved in post-processing without starting a matching."""
        return self.no_em_accepted + self.no_em_discarded

    @property
    def postprocessed(self) -> int:
        """Sets that reached the post-processing phase."""
        return self.candidates - self.refinement_pruned

    @property
    def response_seconds(self) -> float:
        return self.timer.total

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another partition's stats into this one."""
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.final_stream_similarity = max(
            self.final_stream_similarity, other.final_stream_similarity
        )
        self.timer.merge(other.timer)
        self.memory.merge(other.memory)

    #: Every int counter: summed by ``merge`` and never negative
    #: (everything except the float stream similarity and the
    #: timer/memory sub-objects).
    _COUNTER_FIELDS = (
        "stream_tuples",
        "candidates",
        "pruned_first_sight",
        "pruned_bucket",
        "bucket_moves",
        "observed_edges",
        "discarded_edges",
        "no_em_accepted",
        "no_em_discarded",
        "em_early_terminated",
        "em_initial_pruned",
        "em_full",
        "em_label_updates",
        "resolution_em",
        "verify_matmul_cells",
        "verify_matmul_flops",
        "verify_bytes_scanned",
        "verify_fallbacks",
    )

    def validate(self) -> list[str]:
        """Check the stats invariants; returns violation descriptions.

        An empty list means the stats are coherent. The partition
        invariant (the module docstring's identity) is the load-bearing
        one: it catches merge bugs in cluster stat accumulation, where a
        dropped or double-counted partial silently skews the funnel.
        """
        violations: list[str] = []
        for name in self._COUNTER_FIELDS:
            value = getattr(self, name)
            if value < 0:
                violations.append(f"negative counter {name}={value}")
        resolved = (
            self.refinement_pruned
            + self.no_em
            + self.em_early_terminated
            + self.em_full
        )
        if self.em_initial_pruned > self.em_early_terminated:
            violations.append(
                f"em_initial_pruned={self.em_initial_pruned} exceeds "
                f"em_early_terminated={self.em_early_terminated}"
            )
        if self.candidates != resolved:
            violations.append(
                f"funnel does not partition candidates: "
                f"candidates={self.candidates} != refinement_pruned="
                f"{self.refinement_pruned} + no_em={self.no_em} + "
                f"em_early_terminated={self.em_early_terminated} + "
                f"em_full={self.em_full} (= {resolved})"
            )
        return violations

    def consistency_ok(self) -> bool:
        """The resolution counters must partition the candidates."""
        return not self.validate()

    def funnel(self) -> dict:
        """The pruning funnel as a JSON-ready dict (the EXPLAIN shape).

        Every key is a plain int so cluster partials can be compared
        bitwise against the merged stats: for each counter the merged
        value must equal the sum over the per-partition funnels.
        """
        return {
            "candidates": self.candidates,
            "pruned_first_sight": self.pruned_first_sight,
            "pruned_bucket": self.pruned_bucket,
            "refinement_pruned": self.refinement_pruned,
            "no_em_accepted": self.no_em_accepted,
            "no_em_discarded": self.no_em_discarded,
            "em_early_terminated": self.em_early_terminated,
            "em_full": self.em_full,
        }
