"""The columnar refinement engine — Algorithm 1 as NumPy trajectories.

The reference implementation (:mod:`repro.core.refinement`) walks the
token stream tuple by tuple and, for every tuple, loops in Python over
the probed posting list: dict lookups, ``CandidateState`` method calls,
set membership tests. That per-edge interpreter overhead — not the
arithmetic — is what saturates a core on large repositories.

The fast path splits the phase into two parts with very different
execution models, exploiting one structural fact: **a candidate's
greedy matching evolves independently of every other candidate and of
all pruning decisions** (``observe`` consults only the candidate's own
matched tokens/elements). Pruning merely decides *whether a candidate
is still watched*, never *how its matching would have grown*.

1. **Trajectory phase (vectorized).** Tokens and query elements are
   interned to integer ids (:mod:`repro.index.interning`), the inverted
   index becomes two flat CSR arrays, and stream blocks expand into
   edge arrays via ``np.repeat``. Candidate state is a struct of
   arrays — ``matched_score``, ``matched_count``, capacities, matched
   flags over CSR positions — updated with masked fancy indexing. Each
   candidate's edges apply in stream order ("round" r applies every
   candidate's r-th edge, all candidates at once), so every partial
   matching score is bit-for-bit the reference's. The phase emits a
   compact event log: admissions (with their precomputed first-sight
   upper bounds) and valid matching extensions, each stamped with its
   stream position.

2. **Replay phase (sequential, exact).** The event log is replayed in
   stream order through the *reference* threshold machinery — the same
   :class:`~repro.core.topk.TopKList` offers, the same
   :class:`~repro.core.buckets.BucketStore` moves and per-tuple sweeps,
   the same Lemma-2 first-sight check against the live ``theta_lb``.
   Events of already-pruned candidates are skipped, exactly as the
   reference skips their posting entries. Because the bounds offered
   and compared are identical floats applied in the identical order,
   the pruned set, the survivor states, and the frozen bounds are
   bitwise-identical to the reference engine's — on *any* input,
   including the near-tie configurations where the paper-mode iUB is
   not sound and results genuinely depend on the pruning schedule.

The replay only touches admissions and valid extensions; the dominant
costs of the reference loop — probing edges of pruned candidates,
discarded-edge bookkeeping, per-admission set algebra — stay columnar.
Two stats counters (``observed_edges``/``discarded_edges``) are
computed from the full trajectories and therefore also count edges the
reference stops probing once a candidate is pruned; all pruning/
resolution counters (the ones ``consistency_ok`` audits) are exact.

The columnar *drain* (:func:`fast_drain`) applies the same idea to
stream generation: instead of the heap-merged per-tuple release of
:class:`~repro.index.token_stream.TokenStream`, each query element's
similarity block comes from one matrix-vector product
(:meth:`~repro.index.vector_index.ExactCosineIndex.probe_similarities`
— numerically the identical float32 computation), is filtered against
``alpha`` and the collection vocabulary as arrays, and the blocks are
merged by an exact simulation of the reference heap's push-counter
tiebreak (NOT a plain argsort — equal similarities across query
elements must pop in the reference's insertion order to keep the
stream bitwise-identical).
"""

from __future__ import annotations

import time
from typing import AbstractSet, Iterable

import numpy as np

from repro.core.bounds import Survivors
from repro.core.config import ENGINE_COLUMNAR, FilterConfig
from repro.core.refinement import RefinementOutput
from repro.core.stats import SearchStats
from repro.core.topk import ThetaLB
from repro.errors import (
    EmptyQueryError,
    InvalidParameterError,
    SearchTimeout,
)
from repro.index.interning import (
    CSRPostings,
    TokenTable,
    csr_advance,
    csr_from_index,
)
from repro.index.token_stream import MaterializedTokenStream
from repro.obs import annotate

#: Stream tuples per trajectory block — bounds peak edge-array memory
#: and the number of per-block "rounds" (max edges one candidate has in
#: a block); it does not affect results (pruning happens in the exact
#: replay, not per block).
BLOCK_SIZE = 4096


class ColumnarPartition:
    """Immutable per-partition context shared by every search.

    Holds the CSR posting view of one partition's inverted index plus
    the derived arrays that do not depend on the query: per-set
    cardinalities and the dense id-space size.
    """

    __slots__ = ("csr", "sizes", "n_ids")

    def __init__(
        self, csr: CSRPostings, sizes: np.ndarray | None = None
    ) -> None:
        self.csr = csr
        self.sizes = csr.set_sizes() if sizes is None else sizes
        self.n_ids = int(self.sizes.shape[0])

    @classmethod
    def build(cls, inverted, table: TokenTable) -> "ColumnarPartition":
        columnar = getattr(inverted, "columnar", None)
        if columnar is not None:
            return cls(columnar(table))
        return cls(csr_from_index(inverted, table))

    def advanced(
        self, old_table: TokenTable, table: TokenTable, dead, born
    ) -> "ColumnarPartition":
        """This partition after its index lost the ``dead`` sets and
        gained the ``born`` ones (``(set id, members)`` sequences, as
        :func:`~repro.index.interning.csr_advance` takes them): the
        context a from-scratch :meth:`build` over the later state and
        ``table`` would produce, array for array, at a cost set by the
        delta instead of by the partition."""
        csr = csr_advance(self.csr, old_table, table, dead, born)
        if csr is self.csr:
            return self
        sizes = self.sizes
        if dead or born:
            top = max(self.n_ids, born[-1][0] + 1 if born else 0)
            sizes = np.zeros(top, dtype=np.int64)
            sizes[:self.n_ids] = self.sizes
            for set_id, _ in dead:
                sizes[set_id] = 0
            for set_id, members in born:
                sizes[set_id] = len(members)
            if top and not sizes[-1]:
                # ``sizes`` ends at the largest live id, as ``bincount``
                # has it.
                live = np.flatnonzero(sizes)
                sizes = sizes[:int(live[-1]) + 1 if live.size else 0]
        return ColumnarPartition(csr, sizes)

    def nbytes(self) -> int:
        return self.csr.nbytes() + int(self.sizes.nbytes)


def sim_cache_from_stream(
    stream: MaterializedTokenStream,
) -> dict[tuple[str, str], float]:
    """The full ``(q, t) -> s`` cache of a drained stream.

    Each pair occurs at most once per stream, so the cache is one dict
    comprehension instead of the reference's per-tuple get/compare. It
    is a property of the stream, not of any partition's refinement
    schedule, which is why the columnar engine fills it up front.
    """
    return {(q_token, token): s for q_token, token, s in stream}


def _per_query_block(
    index, q_token: str, q_id: int, alpha: float, row_ids: np.ndarray
) -> tuple[list[int], list[float]]:
    """One query element's descending ``(token_id, sim)`` block.

    Reproduces :class:`~repro.index.vector_index.ExactCosineIndex`'s
    released order bitwise — including the self-match-first rule and the
    batched argpartition/argsort release (whose tie placement at the
    batch boundary is deterministic for a given input) — but filters
    vocabulary and ``alpha`` as array masks instead of per-tuple Python.
    """
    token_ids: list[int] = []
    sims_out: list[float] = []
    if q_id >= 0:
        # The self-match rule of §V: a query element yields itself with
        # similarity 1.0 when it is in the vocabulary.
        token_ids.append(q_id)
        sims_out.append(1.0)
    sims = index.probe_similarities(q_token)
    if sims is None:
        return token_ids, sims_out
    sims = sims.astype(np.float64)
    size = sims.shape[0]
    batch = index.batch_size
    if size > batch:
        top = np.argpartition(-sims, batch - 1)[:batch]
        top = top[np.argsort(-sims[top], kind="stable")]
        full = np.argsort(-sims, kind="stable")
        in_top = np.zeros(size, dtype=bool)
        in_top[top] = True
        order = np.concatenate([top, full[~in_top[full]]])
    else:
        order = np.argsort(-sims, kind="stable")
    ordered_sims = sims[order]
    ordered_ids = row_ids[order]
    keep = (ordered_sims >= alpha) & (ordered_ids >= 0)
    if q_token in index.store:
        keep &= order != index.store.row_of(q_token)  # self-match is above
    token_ids.extend(ordered_ids[keep].tolist())
    sims_out.extend(ordered_sims[keep].tolist())
    return token_ids, sims_out


def fast_drain(
    query_tokens: Iterable[str],
    index,
    alpha: float,
    *,
    vocabulary: AbstractSet[str],
    table: TokenTable | None = None,
) -> MaterializedTokenStream:
    """Columnar drain of the token stream ``Ie`` for a cosine index.

    Bitwise-identical to a :class:`~repro.index.token_stream.TokenStream`
    drain — the same float32 similarity products, the same self-match /
    vocabulary / ``alpha`` rules, and the same merged order (the heap's
    push-counter tiebreak is simulated exactly) — but each query
    element's block is produced by one matrix-vector product plus array
    filtering instead of per-tuple generator machinery. The interned
    column arrays are attached so refinement never re-encodes tuples.
    """
    import heapq

    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError("alpha must be in (0, 1]")
    query = sorted(set(query_tokens))
    if not query:
        raise EmptyQueryError("query set is empty")
    if table is None:
        table = TokenTable.from_vocabulary(vocabulary)
    row_ids = index.row_token_ids(table)
    blocks = [
        _per_query_block(index, q_token, table.id_of(q_token), alpha, row_ids)
        for q_token in query
    ]
    # Exact replication of TokenStream's |Q|-way heap merge: entries are
    # (-sim, push_counter, q_index); the counter advances on every push,
    # so equal similarities pop in the reference's insertion order.
    heap: list[tuple[float, int, int]] = []
    counter = 0
    positions = [0] * len(query)
    for q_index, (token_ids, sims) in enumerate(blocks):
        if token_ids:
            heapq.heappush(heap, (-sims[0], counter, q_index))
            counter += 1
    out_qi: list[int] = []
    out_tid: list[int] = []
    out_s: list[float] = []
    while heap:
        neg_sim, _, q_index = heapq.heappop(heap)
        token_ids, sims = blocks[q_index]
        position = positions[q_index]
        positions[q_index] = position + 1
        following = position + 1
        if following < len(token_ids):
            heapq.heappush(heap, (-sims[following], counter, q_index))
            counter += 1
        out_qi.append(q_index)
        out_tid.append(token_ids[position])
        out_s.append(-neg_sim)
    q_col = np.asarray(out_qi, dtype=np.int64)
    t_col = np.asarray(out_tid, dtype=np.int64)
    s_col = np.asarray(out_s, dtype=np.float64)
    tokens = table.tokens
    tuples = [
        (query[qi], tokens[ti], s)
        for qi, ti, s in zip(out_qi, out_tid, out_s)
    ]
    stream = MaterializedTokenStream(
        tuples, query_tokens=frozenset(query), alpha=alpha
    )
    stream.attach_columns(table, query, (q_col, t_col, s_col))
    return stream


def drain_stream(
    query_tokens: Iterable[str],
    token_index,
    alpha: float,
    *,
    vocabulary: AbstractSet[str],
    engine: str = ENGINE_COLUMNAR,
    table: TokenTable | None = None,
) -> MaterializedTokenStream:
    """Drain dispatcher: the columnar block drain when the engine and
    index support it, the reference heap drain otherwise."""
    if engine == ENGINE_COLUMNAR and hasattr(token_index, "probe_similarities"):
        return fast_drain(
            query_tokens,
            token_index,
            alpha,
            vocabulary=vocabulary,
            table=table,
        )
    return MaterializedTokenStream.drain(
        query_tokens,
        token_index,
        alpha,
        collection_vocabulary=vocabulary,
    )


def refine_columnar(
    query: frozenset[str],
    stream: MaterializedTokenStream,
    partition: ColumnarPartition,
    table: TokenTable,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    *,
    sim_cache: dict[tuple[str, str], float] | None = None,
    deadline: float | None = None,
    block_size: int = BLOCK_SIZE,
) -> RefinementOutput:
    """Run Algorithm 1 over one partition: vectorized trajectories plus
    an exact sequential replay of the pruning decisions.

    Same contract — and bitwise-identical outcome — as
    :func:`repro.core.refinement.refine`; ``partition`` and ``table``
    replace the inverted index / collection pair (everything refinement
    needs about candidates is in the CSR arrays).
    """
    if sim_cache is None:
        sim_cache = {}
    if not sim_cache:
        sim_cache.update(sim_cache_from_stream(stream))

    query_sorted = sorted(query)
    nq = len(query_sorted)
    q_col, t_col, s_col = stream.columns(table, query_sorted)
    n_tuples = int(s_col.shape[0])
    last_similarity = float(s_col[-1]) if n_tuples else 1.0
    stats.stream_tuples += n_tuples
    stats.final_stream_similarity = last_similarity

    n_ids = partition.n_ids
    if n_tuples == 0 or n_ids == 0:
        return RefinementOutput(
            survivors=Survivors.of({}),
            sim_cache=sim_cache,
            last_similarity=last_similarity,
        )

    offsets = partition.csr.offsets
    posting_sets = partition.csr.sets
    sizes = partition.sizes
    capacity = np.minimum(nq, sizes)

    # -- query-level precomputation ------------------------------------
    q_ids = np.fromiter(
        (table.id_of(q_token) for q_token in query_sorted),
        dtype=np.int64,
        count=nq,
    )
    is_query_token = np.zeros(len(table), dtype=bool)
    is_query_token[q_ids[q_ids >= 0]] = True
    # q_in_c[qi, sid]: query element qi is a member of set sid — drives
    # both the vanilla overlap |Q ∩ C| and edge validity at admission.
    q_in_c = np.zeros((nq, n_ids), dtype=bool)
    for qi in range(nq):
        q_id = int(q_ids[qi])
        if q_id >= 0:
            members = posting_sets[offsets[q_id]:offsets[q_id + 1]]
            q_in_c[qi, members] = True
    vanilla_init = config.vanilla_initialization
    if vanilla_init:
        vanilla = q_in_c.sum(axis=0).astype(np.int64)
    else:
        vanilla = np.zeros(n_ids, dtype=np.int64)

    # -- trajectory struct-of-arrays -----------------------------------
    seen = np.zeros(n_ids, dtype=bool)
    score = np.zeros(n_ids, dtype=np.float64)
    mcount = np.zeros(n_ids, dtype=np.int64)
    q_matched = np.zeros((nq, n_ids), dtype=bool)
    token_matched = np.zeros(partition.csr.total_postings, dtype=bool)
    if vanilla_init:
        # Vanilla initialization marks a candidate's overlap tokens
        # matched at admission. A posting position (q_id, C) is by
        # definition an overlap member of C, so pre-marking every query
        # token's posting range reproduces that for all candidates at
        # once (positions are only ever read for admitted candidates).
        for q_id in q_ids[q_ids >= 0].tolist():
            token_matched[offsets[q_id]:offsets[q_id + 1]] = True
    track_caps = config.track_caps
    caps = np.zeros((nq, n_ids), dtype=np.float64) if track_caps else None

    use_first_sight = config.use_first_sight_ub

    # Event log: admissions and valid extensions, stamped with stream
    # position. ``order`` is the global (tuple, posting-entry) rank, the
    # exact order the reference processes them in.
    ev_order: list[np.ndarray] = []
    ev_tuple: list[np.ndarray] = []
    ev_sid: list[np.ndarray] = []
    ev_score: list[np.ndarray] = []
    ev_m: list[np.ndarray] = []
    ev_upper: list[np.ndarray] = []
    ev_adm: list[np.ndarray] = []
    # Per-edge log for safe mode's live cap matrix during replay.
    cap_edges: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    observed_total = 0
    valid_total = 0
    edge_base = 0

    for block_start in range(0, n_tuples, block_size):
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchTimeout("refinement exceeded its budget")
        block_end = min(block_start + block_size, n_tuples)
        b_qi = q_col[block_start:block_end]
        b_tid = t_col[block_start:block_end]
        b_s = s_col[block_start:block_end]

        t_safe = np.where(b_tid >= 0, b_tid, 0)
        counts = np.where(b_tid >= 0, offsets[t_safe + 1] - offsets[t_safe], 0)
        total_edges = int(counts.sum())
        if total_edges == 0:
            continue
        e_tuple = np.repeat(
            np.arange(block_end - block_start, dtype=np.int64), counts
        )
        prefix = np.zeros(counts.shape[0], dtype=np.int64)
        np.cumsum(counts[:-1], out=prefix[1:])
        e_pos = (
            np.arange(total_edges, dtype=np.int64)
            - np.repeat(prefix, counts)
            + np.repeat(offsets[t_safe], counts)
        )
        e_sid = posting_sets[e_pos]
        e_qi = b_qi[e_tuple]
        e_s = b_s[e_tuple]
        if track_caps:
            cap_edges.append((e_tuple + block_start, e_qi, e_sid, e_s))

        # -- admissions (first sight) ------------------------------------
        adm_edge = np.zeros(e_sid.shape[0], dtype=bool)
        fresh = ~seen[e_sid]
        if fresh.any():
            fresh_positions = np.flatnonzero(fresh)
            new_ids, first = np.unique(
                e_sid[fresh_positions], return_index=True
            )
            adm_idx = fresh_positions[first]
            adm_edge[adm_idx] = True
            seen[new_ids] = True
            if vanilla_init:
                overlap = vanilla[new_ids]
                score[new_ids] = overlap.astype(np.float64)
                mcount[new_ids] = overlap
                q_matched[:, new_ids] = q_in_c[:, new_ids]
            a_qi = e_qi[adm_idx]
            a_s = e_s[adm_idx]
            a_pos = e_pos[adm_idx]
            # The discovering edge joins the partial matching (it is the
            # set's maximum-similarity edge; a no-op when either endpoint
            # is already taken by the vanilla overlap).
            if vanilla_init:
                a_valid = (
                    ~is_query_token[b_tid[e_tuple[adm_idx]]]
                    & ~q_in_c[a_qi, new_ids]
                    & (mcount[new_ids] < capacity[new_ids])
                )
            else:
                a_valid = np.ones(new_ids.shape[0], dtype=bool)
            grown = new_ids[a_valid]
            score[grown] += a_s[a_valid]
            mcount[grown] += 1
            q_matched[a_qi[a_valid], grown] = True
            token_matched[a_pos[a_valid]] = True
            if track_caps:
                caps[a_qi, new_ids] = np.maximum(caps[a_qi, new_ids], a_s)
            m_after = capacity[new_ids] - mcount[new_ids]
            if not use_first_sight:
                upper = np.zeros(new_ids.shape[0], dtype=np.float64)
            elif track_caps:
                # Safe Lemma-2 bound at admission: caps are the overlap's
                # 1.0 entries plus the admission edge, every other slot
                # defaults to the current similarity — sum the largest
                # ``capacity`` of them with sequential additions to stay
                # bitwise-faithful to the reference's left-to-right sum.
                n_ones = vanilla[new_ids] if vanilla_init else np.zeros(
                    new_ids.shape[0], dtype=np.int64
                )
                remaining = capacity[new_ids] - n_ones
                upper = n_ones.astype(np.float64)
                for step in range(int(remaining.max()) if remaining.size else 0):
                    upper = np.where(remaining > step, upper + a_s, upper)
            else:
                upper = score[new_ids] + m_after * a_s
            ev_order.append(edge_base + adm_idx)
            ev_tuple.append(block_start + e_tuple[adm_idx])
            ev_sid.append(new_ids)
            ev_score.append(score[new_ids].copy())
            ev_m.append(m_after)
            ev_upper.append(upper)
            ev_adm.append(np.ones(new_ids.shape[0], dtype=bool))

        # -- extensions of existing candidates (Lemma 5) -----------------
        ext = np.flatnonzero(~adm_edge)
        if ext.size:
            x_sid = e_sid[ext]
            x_qi = e_qi[ext]
            x_pos = e_pos[ext]
            x_s = e_s[ext]
            observed_total += int(x_sid.shape[0])
            # Per-candidate edges must apply in stream order; a stable
            # sort by set id groups them without reordering, and round r
            # applies every candidate's r-th edge — cross-candidate
            # independence makes the rounds fully vectorized.
            grouped = np.argsort(x_sid, kind="stable")
            sid_sorted = x_sid[grouped]
            boundary = np.empty(sid_sorted.shape[0], dtype=bool)
            boundary[0] = True
            np.not_equal(sid_sorted[1:], sid_sorted[:-1], out=boundary[1:])
            group_starts = np.flatnonzero(boundary)
            group_lengths = (
                np.append(group_starts[1:], sid_sorted.shape[0]) - group_starts
            )
            for round_id in range(int(group_lengths.max())):
                in_round = group_lengths > round_id
                selected = grouped[group_starts[in_round] + round_id]
                r_sid = x_sid[selected]
                r_qi = x_qi[selected]
                r_pos = x_pos[selected]
                r_s = x_s[selected]
                if track_caps:
                    caps[r_qi, r_sid] = np.maximum(caps[r_qi, r_sid], r_s)
                valid = (
                    ~token_matched[r_pos]
                    & ~q_matched[r_qi, r_sid]
                    & (mcount[r_sid] < capacity[r_sid])
                )
                if not valid.any():
                    continue
                picked = selected[valid]
                v_sid = r_sid[valid]
                score[v_sid] += r_s[valid]
                mcount[v_sid] += 1
                q_matched[r_qi[valid], v_sid] = True
                token_matched[r_pos[valid]] = True
                valid_total += int(v_sid.shape[0])
                ev_order.append(edge_base + ext[picked])
                ev_tuple.append(block_start + e_tuple[ext[picked]])
                ev_sid.append(v_sid)
                ev_score.append(score[v_sid].copy())
                ev_m.append(capacity[v_sid] - mcount[v_sid])
                ev_upper.append(np.zeros(v_sid.shape[0], dtype=np.float64))
                ev_adm.append(np.zeros(v_sid.shape[0], dtype=bool))
        edge_base += total_edges

    stats.observed_edges += observed_total
    stats.discarded_edges += observed_total - valid_total

    # -- exact replay of the pruning schedule --------------------------
    survivors_state = _replay(
        ev_order,
        ev_tuple,
        ev_sid,
        ev_score,
        ev_m,
        ev_upper,
        ev_adm,
        s_col,
        theta,
        stats,
        config,
        n_ids,
        caps,
        capacity,
        cap_edges,
        nq,
        deadline,
    )

    # -- freeze survivors ----------------------------------------------
    active = np.flatnonzero(np.frombuffer(survivors_state, dtype=np.uint8) == 1)
    if track_caps and active.size:
        effective = np.sort(caps[:, active], axis=0)[::-1]
        totals = np.cumsum(effective, axis=0)
        final_upper = totals[
            capacity[active] - 1, np.arange(active.shape[0])
        ]
    else:
        m_rem = capacity[active] - mcount[active]
        final_upper = score[active] + m_rem * last_similarity
    survivors = Survivors(ids=active, lower=score[active], upper=final_upper)

    event_bytes = sum(
        int(array.nbytes)
        for chunks in (
            ev_order, ev_tuple, ev_sid, ev_score, ev_m, ev_upper, ev_adm,
        )
        for array in chunks
    ) + sum(
        int(array.nbytes) for chunk in cap_edges for array in chunk
    )
    columnar_bytes = (
        partition.nbytes()
        + int(score.nbytes + mcount.nbytes + seen.nbytes)
        + int(q_matched.nbytes + q_in_c.nbytes + token_matched.nbytes)
        + (int(caps.nbytes) if caps is not None else 0)
        + event_bytes
    )
    stats.memory.record("columnar_state", columnar_bytes)
    # Tracing hook (observation only — a no-op outside an active span):
    # how much stream the columnar phase chewed and what survived it.
    annotate(
        stream_tuples=n_tuples,
        survivors=len(survivors),
        columnar_bytes=columnar_bytes,
    )
    return RefinementOutput(
        survivors=survivors,
        sim_cache=sim_cache,
        last_similarity=last_similarity,
    )


def _replay(
    ev_order,
    ev_tuple,
    ev_sid,
    ev_score,
    ev_m,
    ev_upper,
    ev_adm,
    s_col,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    n_ids: int,
    caps,
    capacity,
    cap_edges,
    nq: int,
    deadline: float | None,
) -> bytearray:
    """Replay the event log through the reference threshold machinery.

    Returns the candidate state table (0 unseen, 1 survivor, 2 pruned).
    Every ``theta_lb`` offer, first-sight check, and per-tuple iUB sweep
    happens with the same values in the same order as the reference
    loop, so the pruning decisions are identical — the property the
    engine-equivalence guarantee rests on.

    The bucket structure is replaced by per-``m`` lazy min-heaps: a
    sweep's outcome is the pure predicate ``S_i + m * s < theta_lb``
    (the reference's front-scan with early stop computes exactly that
    set), so any structure yielding the same set is equivalent, and a
    heap with lazy invalidation costs O(log) per matching extension
    instead of two bisected list splices.
    """
    use_first_sight = config.use_first_sight_ub
    use_buckets = config.use_iub_buckets
    track_caps = config.track_caps
    n_tuples = int(s_col.shape[0])

    state = bytearray(n_ids)
    if not ev_order:
        return state
    order = np.argsort(np.concatenate(ev_order), kind="stable")
    e_tuple = np.concatenate(ev_tuple)[order].tolist()
    e_sid = np.concatenate(ev_sid)[order].tolist()
    e_score = np.concatenate(ev_score)[order].tolist()
    e_m = np.concatenate(ev_m)[order].tolist()
    e_upper = np.concatenate(ev_upper)[order].tolist()
    e_adm = np.concatenate(ev_adm)[order].tolist()
    n_events = len(e_tuple)

    if track_caps and caps is not None and cap_edges:
        ce_tuple = np.concatenate([chunk[0] for chunk in cap_edges])
        ce_qi = np.concatenate([chunk[1] for chunk in cap_edges])
        ce_sid = np.concatenate([chunk[2] for chunk in cap_edges])
        ce_s = np.concatenate([chunk[3] for chunk in cap_edges])
        # Caps are live state during replay: rewind the trajectory's
        # final matrix and re-apply per tuple so sweeps read the caps
        # the reference would see at that stream position.
        caps_live = np.zeros_like(caps)
        ce_bounds = np.searchsorted(
            ce_tuple, np.arange(n_tuples + 1), side="left"
        )
    else:
        caps_live = None
        ce_bounds = None

    import heapq

    heappush = heapq.heappush
    heappop = heapq.heappop
    # Per-m lazy heaps: the authoritative (m, S) of a candidate lives in
    # cur_m/cur_score; heap entries that no longer match are skipped on
    # pop. A candidate's score strictly increases with every move, so a
    # stale entry can never collide with a current one.
    heaps: dict[int, list[tuple[float, int]]] = {}
    cur_m = [0] * n_ids
    cur_score = [0.0] * n_ids
    llb = theta.local
    shared = theta.shared
    k = llb.k
    llb_filled = len(llb) >= k
    local_bottom = llb.bottom()
    s_list = s_col.tolist()
    sweep_stats = 0
    pruned_first = 0
    bucket_moves = 0

    def current_theta() -> float:
        if shared is None:
            return local_bottom
        shared_value = shared.value
        return shared_value if shared_value > local_bottom else local_bottom

    def sound_keeps(set_id: int, similarity: float, threshold: float) -> bool:
        """Safe mode's sweep veto: candidates whose *sound* bound still
        clears ``theta_lb`` stay bucketed (Lemma-6 ``keep`` hook)."""
        column = caps_live[:, set_id]
        seen_caps = column[column > 0.0]
        values = np.maximum(seen_caps, similarity)
        unseen = nq - values.shape[0]
        if unseen > 0:
            values = np.concatenate([values, np.full(unseen, similarity)])
        values = np.sort(values)[::-1]
        cap = int(capacity[set_id])
        return float(np.cumsum(values[:cap])[-1]) >= threshold

    pointer = 0
    for tuple_index in range(n_tuples):
        if (
            deadline is not None
            and tuple_index % 4096 == 0
            and time.perf_counter() > deadline
        ):
            raise SearchTimeout("refinement exceeded its budget")
        if caps_live is not None:
            lo, hi = ce_bounds[tuple_index], ce_bounds[tuple_index + 1]
            if hi > lo:
                qi_slice = ce_qi[lo:hi]
                sid_slice = ce_sid[lo:hi]
                caps_live[qi_slice, sid_slice] = np.maximum(
                    caps_live[qi_slice, sid_slice], ce_s[lo:hi]
                )
        while pointer < n_events and e_tuple[pointer] == tuple_index:
            set_id = e_sid[pointer]
            bound = e_score[pointer]
            if e_adm[pointer]:
                stats.candidates += 1
                if use_first_sight and e_upper[pointer] < current_theta():
                    state[set_id] = 2
                    pruned_first += 1
                    pointer += 1
                    continue
                state[set_id] = 1
            elif state[set_id] != 1:
                pointer += 1
                continue
            else:
                bucket_moves += 1
            if use_buckets:
                m_after = e_m[pointer]
                cur_m[set_id] = m_after
                cur_score[set_id] = bound
                heap = heaps.get(m_after)
                if heap is None:
                    heap = heaps[m_after] = []
                heappush(heap, (bound, set_id))
            if not llb_filled or bound > local_bottom:
                if theta.offer(set_id, bound):
                    local_bottom = llb.bottom()
                    llb_filled = len(llb) >= k
            pointer += 1
        if use_buckets:
            threshold = current_theta()
            if threshold > 0.0:
                similarity = s_list[tuple_index]
                for m_remaining in list(heaps):
                    heap = heaps[m_remaining]
                    bucket_threshold = threshold - m_remaining * similarity
                    vetoed: list[tuple[float, int]] = []
                    while heap:
                        entry_score, set_id = heap[0]
                        if entry_score >= bucket_threshold:
                            break
                        heappop(heap)
                        if (
                            state[set_id] != 1
                            or cur_m[set_id] != m_remaining
                            or cur_score[set_id] != entry_score
                        ):
                            continue  # stale or already pruned
                        if caps_live is not None and sound_keeps(
                            set_id, similarity, threshold
                        ):
                            vetoed.append((entry_score, set_id))
                            continue
                        state[set_id] = 2
                        sweep_stats += 1
                    for entry in vetoed:
                        heappush(heap, entry)
                    if not heap:
                        del heaps[m_remaining]

    stats.pruned_first_sight += pruned_first
    stats.pruned_bucket += sweep_stats
    stats.bucket_moves += bucket_moves
    return state
