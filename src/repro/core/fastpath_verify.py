"""The columnar verification engine — Algorithm 2 pays for what it matches.

Per-candidate verification (:mod:`repro.core.postprocessing`, the
path of similarities without an embedding matrix) pays three
Python-heavy costs for every Hungarian run: a ``cache_view``
dict comprehension restricting the streamed similarity cache to the
candidate, a :func:`~repro.matching.graph.build_graph` call that stacks
per-token unit vectors and loops over the cached pairs, and the
:func:`~repro.sim.cosine.CosineSimilarity.matrix` matmul itself — all
for a weight matrix that is almost always thrown away: on the dense
benchmark corpus more than 99 % of the sets that reach verification are
retired by the Lemma-8 check on the *initial* labeling (sum of row
maxima below ``theta_lb``), before any solver work.

The fast path exploits the same structural fact the refinement engine
does: **every candidate's weight matrix is a column selection of one
shared matrix**, and that matrix is sparse. All candidates score the
same query rows against subsets of one vocabulary, so the engine:

1. finds the survivors' union vocabulary from a survivor mask over the
   partition's CSR posting array — no survivor is read from the
   collection or interned for this;
2. builds, **once per phase**, the dense query × union-vocabulary
   similarity block with a single batched matmul over the shared
   embedding matrix (:meth:`CosineSimilarity.table_rows` — the identical
   float32 rows :meth:`CosineSimilarity.matrix` stacks, one gather from
   the store's matrix when the similarity has one), then applies the
   identical-token rule, the ``alpha`` threshold, and the streamed-cache
   overrides exactly as ``build_graph`` does — cached entries are the
   same floats on both paths, which is what pins the two paths'
   matrices bitwise (BLAS matmuls are not shape-invariant, so any
   *uncached* cell near or above ``alpha`` routes the survivors on its
   column's posting list through per-candidate verification instead — see
   :meth:`ColumnarVerifier.prepare`);
3. computes **every survivor's initial label sum in one batched pass**:
   the block's non-zero cells are expanded along their columns' posting
   slices, a scatter-maximum gives each survivor its row maxima, and the
   rows are summed grouped by padded length so each float is bitwise
   what :func:`~repro.matching.hungarian.initial_label_sum` — and hence
   the solver — would compute from the gathered matrix;
4. hands those floats to the walk of
   :func:`~repro.core.postprocessing.postprocess`, which retires the
   survivors below ``theta_lb`` with array masks; only the few that pass
   reach :meth:`ColumnarVerifier.match`, which interns their members
   (sorted-token ids sort like ``build_graph``'s string columns), gathers
   the columns and runs
   :func:`~repro.matching.hungarian.hungarian_matching`, the solver the
   per-candidate path runs too.

The pruning *schedule* is not reimplemented here: survivors verified
per candidate (and the drift guard's fallbacks) take the same walk
with ``+inf`` label sums, so discards, No-EM accepts, early
terminations, final entries, counters and ``theta_lb`` trajectories are
identical by construction under every ablation and deadline path —
pinned by ``tests/core/test_verify_equivalence.py``;
``tests/core/test_verify_batched.py`` pins the batched floats.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.matching.hungarian import MatchingResult, hungarian_matching
from repro.index.interning import TokenTable, posting_slices
from repro.obs import annotate


def supports_columnar_verify(sim) -> bool:
    """True when ``sim`` can back the columnar verifier.

    The verifier needs the similarity to be embedding-backed — one
    shared matrix whose row products reproduce ``sim.matrix`` — which
    :class:`~repro.sim.cosine.CosineSimilarity` advertises through
    ``unit_rows`` and ``table_rows``. Other similarities (pinned
    callables, Jaccard, edit) are verified candidate by candidate.
    """
    return hasattr(sim, "table_rows")


#: Cells of one zero-padded block in :func:`_padded_row_sums` (8 MB of
#: float64): caps the transient when many survivors share a large size.
_SUM_BLOCK_CELLS = 1 << 20


def _padded_row_sums(row_max: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``initial_label_sum`` of every survivor from its row maxima.

    Row ``i`` of ``row_max`` holds one survivor's ``|Q|`` row maxima;
    the solver sums them over the padded length ``lengths[i] =
    max(|Q|, |C|)``, and NumPy's pairwise summation associates by that
    length, so trailing zeros change the float. Survivors are therefore
    grouped by padded length and each group is reduced along the
    contiguous axis of a zero-padded block — the reduction a 1-d
    ``labels.sum()`` of that length performs, row by row.
    """
    num_rows = row_max.shape[1]
    sums = np.empty(row_max.shape[0], dtype=np.float64)
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for group in np.split(order, cuts):
        length = int(lengths[group[0]])
        step = max(1, _SUM_BLOCK_CELLS // length)
        for lo in range(0, group.size, step):
            members = group[lo:lo + step]
            padded = np.zeros((members.size, length), dtype=np.float64)
            padded[:, :num_rows] = row_max[members]
            sums[members] = padded.sum(axis=1)
    return sums


class ColumnarVerifier:
    """One partition's verification phase, paid for by what it matches.

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
        partition,
    ) -> None:
        self._query = query
        self._rows = sorted(query)
        self._collection = collection
        self._table = table
        self._sim = sim
        self._alpha = alpha
        #: The :class:`~repro.core.fastpath.ColumnarPartition` the
        #: survivors come from (its CSR is aligned to ``table``).
        self._partition = partition
        self._cache_by_token: dict[str, list[tuple[str, float]]] = {}
        self._union_ids = np.zeros(0, dtype=np.int64)
        self._weights: np.ndarray | None = None
        # Initial label sum of every survivor, aligned with the ids
        # prepare() was given.
        self._label_sums = np.zeros(0)
        # set id -> column positions into the shared weight block, for
        # the sets a matching was actually entered for.
        self._positions: dict[int, np.ndarray] = {}
        # Sets holding a suspect column: reference fallback.
        self._fallback: set[int] = set()
        # Cost attribution, filled by prepare(): cells of the batched
        # weight block, the FLOP estimate of the matmul producing it
        # (2 * dim multiply-adds per cell), and the bytes of the arrays
        # the batched row-maximum pass built and scanned.
        self.matmul_cells = 0
        self.matmul_flops = 0
        self._pass_bytes = 0
        # Roots that grew an alternating tree, over this search's
        # matchings (``MatchingResult.tree_roots``).
        self.tree_roots = 0

    # -- phase setup -------------------------------------------------------

    #: Width of the suspicion band around ``alpha`` (see ``prepare``):
    #: float32 matmul reduction-order drift between the batched block
    #: and the reference's per-candidate product is a few ulps (~1e-7);
    #: the band is three orders of magnitude wider.
    GEMM_DRIFT_BAND = 1e-4

    def prepare(
        self,
        survivor_ids: np.ndarray,
        cache_by_token: dict[str, list[tuple[str, float]]],
    ) -> np.ndarray:
        """Build the shared weight block and every survivor's initial
        label sum, in one pass over the partition's posting arrays.

        Returns the label sums aligned with ``survivor_ids``, with
        ``+inf`` for the survivors the drift guard routes to the
        reference fallback: the walk never retires those from a batched
        float, so each of them reaches :meth:`match`.

        The block reproduces, for the survivors' union vocabulary, the
        exact per-candidate pipeline of ``build_graph``: float32
        unit-row matmul, clip, float64 cast, identical-token rule,
        ``alpha`` threshold, cached overrides (``score if score >=
        alpha else 0.0``). A candidate's matrix is ``weights[:,
        positions]`` — the same floats the reference would compute,
        column for column — and is gathered only if a matching is
        entered for it (:meth:`weights_of`).

        The block is sparse: its non-zeros are the streamed pairs, the
        identity cells and the rare uncached cell above ``alpha``. Each
        non-zero cell ``(q, t)`` reaches exactly the survivors on ``t``'s
        posting list, so expanding those posting slices and taking a
        scatter-maximum yields every survivor's row maxima at once, and
        :func:`_padded_row_sums` turns them into the floats
        ``initial_label_sum(weights_of(id))`` would return.

        One numerical hazard makes the block's exactness conditional:
        BLAS matmul results are not guaranteed shape-invariant, so a
        cell of the batched block can differ in its last bit from the
        reference's per-candidate product. Cells the streamed cache
        overrides are exact either way (both paths write the identical
        cached float), and cells comfortably below ``alpha`` are zeroed
        by the threshold in both paths — only *uncached* cells at or
        near ``alpha`` could carry a divergent float into a matching
        (the stream contains every pair the index scored >= ``alpha``,
        so such cells exist only where the index and matrix float paths
        drift across the threshold). ``prepare`` therefore flags every
        uncached, non-identity cell above ``alpha - GEMM_DRIFT_BAND``
        and routes the survivors on a flagged column's posting list
        through the reference fallback — the guarantee degrades to the
        reference's own (slower) computation instead of to a wrong
        float. On embedding-backed corpora the flagged set is normally
        empty.
        """
        self._cache_by_token = cache_by_token
        table = self._table
        partition = self._partition
        offsets, posting_sets = partition.csr.offsets, partition.csr.sets
        # Survivor row of every set id (-1: not a survivor), and the
        # union vocabulary: tokens with a survivor on their posting list.
        row_of_set = np.full(partition.n_ids, -1, dtype=np.int64)
        row_of_set[survivor_ids] = np.arange(survivor_ids.size)
        survivor_posting = (row_of_set >= 0)[posting_sets]
        occupied = np.flatnonzero(offsets[1:] > offsets[:-1])
        union_ids = occupied[
            np.logical_or.reduceat(survivor_posting, offsets[occupied])
        ]
        self._union_ids = union_ids

        query_matrix = self._sim.unit_rows(self._rows)
        union_matrix = self._sim.table_rows(table, union_ids)
        weights = np.clip(
            query_matrix @ union_matrix.T, 0.0, 1.0
        ).astype(np.float64)
        # Cells whose float is pinned independently of matmul shape:
        # identity-rule cells (exact 1.0) and cache-overridden cells
        # (the identical cached float in both paths).
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
        # is one cell per cached pair, in any order.
        row_of = {token: row for row, token in enumerate(self._rows)}
        cached = list(cache_by_token)
        cached_ids = table.encode(cached)
        in_union = np.flatnonzero(np.isin(cached_ids, union_ids))
        columns = np.searchsorted(union_ids, cached_ids[in_union])
        for index, column in zip(in_union.tolist(), columns.tolist()):
            for q_token, score in cache_by_token[cached[index]]:
                row = row_of.get(q_token)
                if row is not None:
                    weights[row, column] = score if score >= alpha else 0.0
                    suspicious[row, column] = False
        self._weights = weights

        # Every survivor's row maxima: each non-zero cell's value lands
        # on the survivors of its column's posting slice.
        cell_row, cell_column = np.nonzero(weights)
        edge_cell, edge_position = posting_slices(
            offsets, union_ids[cell_column]
        )
        edge_set = row_of_set[posting_sets[edge_position]]
        alive = edge_set >= 0
        edge_cell = edge_cell[alive]
        num_rows = len(self._rows)
        row_max = np.zeros((survivor_ids.size, num_rows), dtype=np.float64)
        np.maximum.at(
            row_max.reshape(-1),
            edge_set[alive] * num_rows + cell_row[edge_cell],
            weights[cell_row, cell_column][edge_cell],
        )
        label_sums = _padded_row_sums(
            row_max, np.maximum(num_rows, partition.sizes[survivor_ids])
        )
        self._label_sums = label_sums

        # Columns with an uncached near/above-alpha cell could gather a
        # matmul float that differs from the reference's per-candidate
        # product in its last bit; the survivors holding one take the
        # reference fallback instead (see the docstring).
        suspects = union_ids[np.flatnonzero(suspicious.any(axis=0))]
        if suspects.size:
            holders = np.concatenate(
                [
                    posting_sets[offsets[t]:offsets[t + 1]]
                    for t in suspects.tolist()
                ]
            )
            holders = holders[row_of_set[holders] >= 0]
            self._fallback = set(holders.tolist())
            label_sums = label_sums.copy()
            label_sums[row_of_set[holders]] = np.inf
        self.matmul_cells = int(weights.size)
        self.matmul_flops = 2 * int(weights.size) * int(
            union_matrix.shape[1]
        )
        self._pass_bytes = int(
            row_of_set.nbytes
            + survivor_posting.nbytes
            + edge_position.nbytes
            + edge_set.nbytes
            + row_max.nbytes
            + label_sums.nbytes
        )
        # Tracing hook (observation only): the one batched matmul this
        # phase runs, and how many candidates bypass it via fallback.
        annotate(
            verify_matmul_cells=int(weights.size),
            verify_candidates=int(survivor_ids.size) - len(self._fallback),
            verify_fallbacks=len(self._fallback),
            verify_tree_roots=0,
        )
        return label_sums

    @property
    def fallback_count(self) -> int:
        """Candidates the drift guard routed to the reference path."""
        return len(self._fallback)

    # -- per-candidate verification ---------------------------------------

    def weights_of(self, set_id: int) -> np.ndarray:
        """The candidate's dense weight matrix (one column gather).

        Interns the members on first use — the shared table's
        sorted-token id order makes ``np.sort`` of ids equal the
        reference's sorted-string column order — so only sets a matching
        is entered for are ever read from the collection.
        """
        positions = self._positions.get(set_id)
        if positions is None:
            member_ids = np.sort(
                self._table.encode(self._collection[set_id])
            )
            positions = np.searchsorted(self._union_ids, member_ids)
            self._positions[set_id] = positions
        return self._weights[:, positions]

    def match(
        self, set_id: int, bound: Callable[[], float | None] | None
    ) -> MatchingResult:
        """One Hungarian run for ``set_id`` against the live threshold.

        Called only for the survivors the walk could not retire from
        their batched label sum. The solver's entry check derives the
        identical float from the gathered matrix and reads the live
        threshold once, exactly as the reference path does.
        """
        if set_id in self._fallback:
            result = self._match_fallback(set_id, bound)
        else:
            result = hungarian_matching(self.weights_of(set_id), bound=bound)
        # Tracing hook (observation only): how often a matching falls
        # through the solver's initial-labeling shortcut.
        self.tree_roots += result.tree_roots
        annotate(verify_tree_roots=self.tree_roots)
        return result

    def _match_fallback(
        self, set_id: int, bound: Callable[[], float | None] | None
    ) -> MatchingResult:
        """Reference matrix construction for drift-guarded candidates."""
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
        """Bytes the phase held and scanned: the shared weight block,
        the arrays of the batched row-maximum pass, and the column
        positions of the sets a matching was entered for."""
        total = 0 if self._weights is None else int(self._weights.nbytes)
        return total + self._pass_bytes + sum(
            int(positions.nbytes) for positions in self._positions.values()
        )
