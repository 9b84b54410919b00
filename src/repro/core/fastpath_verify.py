"""The columnar verification engine — Algorithm 2's matrices as one matmul.

The reference post-processing loop (:mod:`repro.core.postprocessing`)
pays three Python-heavy costs for every Hungarian run: a ``cache_view``
dict comprehension restricting the streamed similarity cache to the
candidate, a :func:`~repro.matching.graph.build_graph` call that stacks
per-token unit vectors and loops over the cached pairs, and the
:func:`~repro.sim.cosine.CosineSimilarity.matrix` matmul itself — all
for a weight matrix that is usually thrown away after the Lemma-8
initial check prunes the candidate. On verification-bound workloads
(long posting lists, many survivors) that per-candidate interpreter
overhead dominates the phase.

The fast path exploits the same structural fact the refinement engine
does: **every candidate's weight matrix is a column selection of one
shared matrix**. All candidates score the same query rows against
subsets of one vocabulary, so the engine:

1. interns every survivor's member tokens through the shared
   :class:`~repro.index.interning.TokenTable` (whose sorted-token id
   order makes ``np.sort`` of ids equal the reference's sorted-string
   column order);
2. builds, **once per phase**, the dense query × union-vocabulary
   similarity block with a single batched matmul over the shared
   embedding matrix (:meth:`CosineSimilarity.unit_rows` — the identical
   float32 stacking :meth:`CosineSimilarity.matrix` performs), then
   applies the identical-token rule, the ``alpha`` threshold, and the
   streamed-cache overrides exactly as ``build_graph`` does — cached
   entries are the same floats in both engines, which is what pins the
   two engines' matrices bitwise (BLAS matmuls are not shape-invariant,
   so any *uncached* cell near or above ``alpha`` routes its candidates
   through the reference fallback instead — see :meth:`prepare`);
3. serves each verification as a pure column gather plus the Kuhn–
   Munkres solver on dense NumPy label/slack arrays — the untouched
   :func:`~repro.matching.hungarian.hungarian_matching` — with the
   Lemma-8 label-sum initial check applied *before* building the padded
   matrix via :func:`~repro.matching.hungarian.initial_label_sum`
   (bitwise the same float the solver would compute, so the pruned /
   not-pruned decision and the reported ``label_sum`` are identical).

The pruning *schedule* — ledger updates, ``theta_ub`` reads, No-EM
acceptances, batch selection, theta offers — is not reimplemented at
all: the verifier is injected into the reference
:func:`~repro.core.postprocessing.postprocess` loop and only replaces
how a weight matrix is produced. Discards, No-EM accepts, early
terminations, final entries, stats counters, and ``theta_lb``
trajectories are therefore identical by construction, under every
ablation, ``em_workers`` width, and deadline path. The differential
harness (``tests/core/test_verify_equivalence.py``) pins exactly that.

Candidates whose members fall outside the token table (a defensive
case: the table follows the collection's vocabulary) fall back to the
reference matrix construction for that candidate alone.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.core.bounds import CandidateState
from repro.matching.hungarian import (
    _EPS,
    MatchingResult,
    hungarian_matching,
    initial_label_sum,
)
from repro.index.interning import TokenTable
from repro.obs import annotate


def _entry_replay(
    threshold: float | None, bound: Callable[[], float | None]
) -> Callable[[], float | None]:
    """A bound whose first read returns an already-observed value.

    Keeps the engines' live-threshold read schedules identical: the
    verifier's Lemma-8 pre-check consumes the entry read, and the
    solver's own entry check replays it rather than sampling the
    (possibly concurrently risen) threshold a second time.
    """
    replayed = False

    def read() -> float | None:
        nonlocal replayed
        if not replayed:
            replayed = True
            return threshold
        return bound()

    return read


def supports_columnar_verify(sim) -> bool:
    """True when ``sim`` can back the columnar verifier.

    The verifier needs the similarity to be embedding-backed — one
    shared matrix whose row products reproduce ``sim.matrix`` — which
    :class:`~repro.sim.cosine.CosineSimilarity` advertises through
    ``unit_rows``. Other similarities (pinned callables, Jaccard, edit)
    keep the reference verification path even under the columnar
    engine.
    """
    return hasattr(sim, "unit_rows")


class ColumnarVerifier:
    """Batched weight-matrix construction for one partition's phase.

    Built by the facade per partition search (cheap: real work happens
    in :meth:`prepare`, called by ``postprocess`` once the survivors are
    known) and consumed through :meth:`match`, which mirrors the
    reference ``verify`` contract: one (possibly early-terminated)
    :class:`~repro.matching.hungarian.MatchingResult` per candidate,
    against the live threshold.
    """

    def __init__(
        self,
        query: frozenset[str],
        collection,
        table: TokenTable,
        sim,
        alpha: float,
    ) -> None:
        self._query = query
        self._rows = sorted(query)
        self._collection = collection
        self._table = table
        self._sim = sim
        self._alpha = alpha
        self._cache_by_token: dict[str, list[tuple[str, float]]] = {}
        # set_id -> column positions into the shared weight block; ids
        # missing from the table route through the reference fallback.
        self._positions: dict[int, np.ndarray] = {}
        self._fallback: set[int] = set()
        self._weights: np.ndarray | None = None
        # Cost attribution, filled by prepare(): cells of the batched
        # weight block and the FLOP estimate of the matmul producing it
        # (2 * dim multiply-adds per cell).
        self.matmul_cells = 0
        self.matmul_flops = 0

    # -- phase setup -------------------------------------------------------

    #: Width of the suspicion band around ``alpha`` (see ``prepare``):
    #: float32 matmul reduction-order drift between the batched block
    #: and the reference's per-candidate product is a few ulps (~1e-7);
    #: the band is three orders of magnitude wider.
    GEMM_DRIFT_BAND = 1e-4

    def prepare(
        self,
        survivors: Mapping[int, CandidateState],
        cache_by_token: dict[str, list[tuple[str, float]]],
    ) -> None:
        """Intern the survivors and build the shared weight block.

        Reproduces, for the union vocabulary, the exact per-candidate
        pipeline of ``build_graph``: float32 unit-row matmul, clip,
        float64 cast, identical-token rule, ``alpha`` threshold, cached
        overrides (``score if score >= alpha else 0.0``). A candidate's
        matrix is then ``weights[:, positions]`` — the same floats the
        reference would compute, column for column.

        One numerical hazard makes that claim conditional: BLAS matmul
        results are not guaranteed shape-invariant, so a cell of the
        batched block can differ in its last bit from the reference's
        per-candidate product. Cells the streamed cache overrides are
        exact either way (both engines write the identical cached
        float), and cells comfortably below ``alpha`` are zeroed by the
        threshold in both engines — only *uncached* cells at or near
        ``alpha`` could carry a divergent float into a matching (the
        stream contains every pair the index scored >= ``alpha``, so
        such cells exist only where the index and matrix float paths
        drift across the threshold). ``prepare`` therefore flags every
        uncached, non-identity cell above ``alpha - GEMM_DRIFT_BAND``
        and routes candidates containing a flagged column through the
        reference fallback — the guarantee degrades to the reference's
        own (slower) computation instead of to a wrong float. On
        embedding-backed corpora the flagged set is normally empty.
        """
        self._cache_by_token = cache_by_token
        table = self._table
        collection = self._collection
        id_arrays: list[np.ndarray] = []
        spans: list[tuple[int, int, int]] = []  # (set_id, lo, hi)
        total = 0
        for set_id in survivors:
            ids = np.sort(table.encode(collection[set_id]))
            if ids.size and ids[0] < 0:
                self._fallback.add(set_id)
                continue
            id_arrays.append(ids)
            spans.append((set_id, total, total + ids.size))
            total += ids.size
        if not id_arrays:
            return
        member_ids = np.concatenate(id_arrays)
        union_ids = np.unique(member_ids)
        tokens = table.tokens
        union_tokens = [tokens[i] for i in union_ids.tolist()]

        query_matrix = self._sim.unit_rows(self._rows)
        union_matrix = self._sim.unit_rows(union_tokens)
        weights = np.clip(
            query_matrix @ union_matrix.T, 0.0, 1.0
        ).astype(np.float64)
        # Cells whose float is pinned independently of matmul shape:
        # identity-rule cells (exact 1.0) and cache-overridden cells
        # (the identical cached float in both engines).
        pinned = np.zeros(weights.shape, dtype=bool)
        # Identical-token rule: a query token that is also a member
        # token scores 1.0 regardless of embedding coverage.
        alpha = self._alpha
        q_ids = table.encode(self._rows)
        for row, q_id in enumerate(q_ids.tolist()):
            if q_id < 0:
                continue
            column = int(np.searchsorted(union_ids, q_id))
            if column < union_ids.size and union_ids[column] == q_id:
                weights[row, column] = 1.0
                pinned[row, column] = True
        suspicious = (~pinned) & (weights >= alpha - self.GEMM_DRIFT_BAND)
        weights[weights < alpha] = 0.0
        # Streamed-cache overrides win over recomputed entries, exactly
        # as in build_graph; rows are unique (sorted set), so the scatter
        # is one cell per cached pair.
        row_of = {token: row for row, token in enumerate(self._rows)}
        for column, token in enumerate(union_tokens):
            for q_token, score in cache_by_token.get(token, ()):
                row = row_of.get(q_token)
                if row is not None:
                    weights[row, column] = score if score >= alpha else 0.0
                    suspicious[row, column] = False
        self._weights = weights

        # Columns with an uncached near/above-alpha cell could gather a
        # matmul float that differs from the reference's per-candidate
        # product in its last bit; candidates touching one take the
        # reference fallback instead (see the docstring).
        suspect_columns = np.flatnonzero(suspicious.any(axis=0))
        suspect_ids = (
            set(union_ids[suspect_columns].tolist())
            if suspect_columns.size else None
        )
        all_positions = np.searchsorted(union_ids, member_ids)
        for (set_id, lo, hi), ids in zip(spans, id_arrays):
            if suspect_ids is not None and not suspect_ids.isdisjoint(
                ids.tolist()
            ):
                self._fallback.add(set_id)
                continue
            self._positions[set_id] = all_positions[lo:hi]
        self.matmul_cells = int(weights.size)
        self.matmul_flops = 2 * int(weights.size) * int(
            union_matrix.shape[1]
        )
        # Tracing hook (observation only): the one batched matmul this
        # phase runs, and how many candidates bypass it via fallback.
        annotate(
            verify_matmul_cells=int(weights.size),
            verify_candidates=len(self._positions),
            verify_fallbacks=len(self._fallback),
        )

    @property
    def fallback_count(self) -> int:
        """Candidates the drift guard routed to the reference path."""
        return len(self._fallback)

    # -- per-candidate verification ---------------------------------------

    def weights_of(self, set_id: int) -> np.ndarray:
        """The candidate's dense weight matrix (one column gather)."""
        return self._weights[:, self._positions[set_id]]

    def match(
        self, set_id: int, bound: Callable[[], float | None] | None
    ) -> MatchingResult:
        """One Hungarian run for ``set_id`` against the live threshold.

        Applies the Lemma-8 initial check on the gathered matrix before
        entering the solver: the initial label sum is the identical
        float the solver would derive, read against the identical
        threshold at the identical point, so the early-out returns
        exactly the :class:`MatchingResult` the reference produces —
        ``score 0.0``, ``pruned``, the certified ``label_sum``, zero
        label updates.
        """
        if set_id in self._fallback:
            return self._match_fallback(set_id, bound)
        weights = self.weights_of(set_id)
        if bound is not None and weights.shape[0] and weights.shape[1]:
            label_sum = initial_label_sum(weights)
            threshold = bound()
            if threshold is not None and label_sum < threshold - _EPS:
                return MatchingResult(
                    score=0.0,
                    pruned=True,
                    label_sum=label_sum,
                    label_updates=0,
                )
            # Replay the threshold just read into the solver's own
            # entry check instead of letting it re-read the live bound:
            # the reference path reads exactly once at this point, and a
            # concurrently rising theta_lb must not observe an extra
            # read (subsequent per-update reads stay live).
            return hungarian_matching(
                weights, bound=_entry_replay(threshold, bound)
            )
        return hungarian_matching(weights, bound=bound)

    def _match_fallback(
        self, set_id: int, bound: Callable[[], float | None] | None
    ) -> MatchingResult:
        """Reference matrix construction for out-of-table candidates."""
        from repro.core.postprocessing import cache_view
        from repro.core.semantic_overlap import semantic_overlap_matching

        result, _, _ = semantic_overlap_matching(
            self._query,
            self._collection[set_id],
            self._sim,
            self._alpha,
            cached_scores=cache_view(
                self._cache_by_token, self._collection[set_id]
            ),
            bound=bound,
        )
        return result

    def nbytes(self) -> int:
        """Footprint of the shared weight block and position arrays."""
        total = 0 if self._weights is None else int(self._weights.nbytes)
        return total + sum(
            int(positions.nbytes) for positions in self._positions.values()
        )
