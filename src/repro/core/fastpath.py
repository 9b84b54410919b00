"""The refinement engine — Algorithm 1 as NumPy trajectories.

Algorithm 1 as the paper writes it (kept verbatim as the test oracle
``tests/core/refinement_oracle.py``, "the reference" below) walks the
token stream tuple by tuple and, for every tuple, loops in Python over
the probed posting list: dict lookups, per-candidate method calls, set
membership tests. That per-edge interpreter overhead — not the
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
   edge arrays (:func:`~repro.index.interning.posting_slices`).
   Candidate state is a struct of arrays indexed by *local* id —
   handed out at admission, so it scales with the candidates the
   stream reaches, not with the largest set id — ``matched_score``,
   ``matched_count``, capacities, matched flags over CSR positions,
   updated with masked fancy indexing. Each candidate's edges apply in
   stream order ("round" r applies every candidate's r-th edge, all
   candidates at once), so every partial matching score is bit-for-bit
   the reference's. The phase emits a compact event log: admissions
   (with their precomputed first-sight upper bounds) and valid matching
   extensions (with the state they leave), each stamped with its
   stream position.

2. **Replay phase (epoch by epoch, exact).** The pruning schedule is
   replayed through the reference threshold machinery — the same
   :class:`~repro.core.topk.ThetaLB` offers, made with the same
   ``(set id, bound)`` in the same order — but Python runs only for the
   offers. ``theta_lb`` moves only at an offer, so between two offers
   every pruning decision is a fixed comparison, and a whole epoch of
   events is settled with array operations. Two facts make that exact:

   * **Each state needs one check.** The reference's per-tuple bucket
     sweep prunes a candidate in state ``(m, S)`` at tuple ``t`` iff
     ``S < theta(t) - m*s[t]`` (its front scan with early stop computes
     exactly that set). As ``t`` grows ``theta`` rises and ``s`` falls,
     and IEEE rounding is monotone, so the predicate never turns from
     true back to false: a state is pruned by some sweep it lives
     through iff by the last one — the sweep of the tuple before the
     candidate's next event (the last tuple for its final state), with
     ``theta`` as it stood after that tuple's events. Safe mode's veto
     (the sound bound still clears ``theta``) is monotone the same way:
     a cap is fixed by its first edge because the stream descends, and
     unseen slots default to the falling ``s``.
   * **A window of events resolves under constant theta.** Each
     extension carries the sweep check of the state it leaves, each
     admission its first-sight check ``upper < theta``. With ``theta``
     held, one vector pass over a window finds each candidate's first
     failing check — hence which events are alive — and the first
     alive event that moves ``theta``: a bound above the ``L_lb``
     bottom, or the one that fills ``L_lb`` (offers into an unfilled
     list leave the bottom at 0.0, so they are made in order and do
     not end the epoch). Everything before it is committed, that offer
     is applied, ``theta`` is re-read, and the next epoch starts after
     it; a window with no such event is committed whole and the next
     one is twice as large.

   The pruned set, the survivor states, all four pruning counters, the
   final ``L_lb`` and the offer sequence are therefore the reference's
   — on *any* input, including the near-tie configurations where the
   paper-mode iUB is not sound and results depend on the schedule. A
   shared :class:`~repro.core.topk.GlobalThreshold` is read once per
   epoch: under sequential partitions that is every value the
   reference reads; under concurrent ones it is a valid interleaving.

The replay only touches admissions and valid extensions; the dominant
costs of the reference loop — probing edges of pruned candidates,
discarded-edge bookkeeping, per-admission set algebra — stay columnar.
Two stats counters (``observed_edges``/``discarded_edges``) are
computed from the full trajectories and therefore also count edges the
reference stops probing once a candidate is pruned; all pruning/
resolution counters (the ones ``consistency_ok`` audits) are exact.

The columnar *drain* (:func:`fast_drain`) applies the same idea to
stream generation and costs what it emits, not what the vocabulary
holds. :meth:`~repro.index.vector_index.ExactCosineIndex.probe_many`
reads the embedding matrix once per drain, in row blocks, with the heap
drain's float32 products; only rows with ``float64(sim) >= alpha``
leave a block (a float32 compare would admit ``float32(alpha) <
alpha``), so scratch is one block plus the hits, never ``|Q| x |V|``.
Each element stable-sorts only its hits — ``(-sim, row)`` order — which
is the index's batched release cut at ``alpha``: with fewer than
``batch`` hits every hit lies above the argpartitioned batch boundary.
An element with ``batch`` or more hits (the boundary may sit above
``alpha``) or with tied hits (argpartition leaves ties out of row
order) re-probes its full row and replays the release: its top batch,
then the other hits. Self-match and out-of-vocabulary rows are cut
after ordering, and the blocks are merged by an exact simulation of the
reference heap's push-counter tiebreak (NOT a plain argsort — equal
similarities across query elements must pop in the reference's
insertion order to keep the stream bitwise-identical).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import AbstractSet, Iterable, NamedTuple

import numpy as np

from repro.core.bounds import Survivors
from repro.core.config import FilterConfig
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
    posting_slices,
)
from repro.index.token_stream import MaterializedTokenStream
from repro.obs import annotate

#: Stream tuples per trajectory block — bounds peak edge-array memory
#: and the number of per-block "rounds" (max edges one candidate has in
#: a block); it does not affect results (pruning happens in the exact
#: replay, not per block). Small enough that on the dense benchmark
#: corpus a block's edge arrays (≈ 100k edges) are recycled by the
#: allocator from block to block: at 4096 every search faulted ≈ 20 MB
#: of them in afresh and spent ≈ 15 % longer in refinement.
BLOCK_SIZE = 512
#: Events one replay window spans: windows start at ``MIN_WINDOW`` and
#: double while they hold no offer, up to ``MAX_WINDOW`` events between
#: two deadline polls.
MIN_WINDOW = 256
MAX_WINDOW = 1 << 15


@dataclass
class RefinementOutput:
    """What the refinement phase hands to post-processing.

    Attributes
    ----------
    survivors:
        The candidates that were not pruned: ids, final lower bounds and
        frozen final upper bounds.
    sim_cache:
        ``(query_token, token) -> similarity`` for every streamed pair —
        reused to initialize verification matrices (§VIII-A3).
    last_similarity:
        Similarity of the final stream tuple (1.0 for an empty stream);
        it caps every unstreamed pair in the paper's iUB.
    """

    survivors: Survivors
    sim_cache: dict[tuple[str, str], float]
    last_similarity: float = 1.0


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
    index, q_token: str, q_id: int, alpha: float, row_ids: np.ndarray,
    found: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[list[int], list[float], bool]:
    """One query element's descending ``(token_id, sim)`` block from
    its ``found`` hits (``(rows, float64 sims)`` chunks, ascending by
    row), and whether it re-probed its full row: the index's release
    order bitwise (module docstring), self-match first (§V)."""
    token_ids, sims_out = ([q_id], [1.0]) if q_id >= 0 else ([], [])
    rows = np.concatenate([r for r, _ in found] or [np.zeros(0, np.int64)])
    sims = np.concatenate([s for _, s in found] or [np.zeros(0)])
    by_sim = np.argsort(-sims, kind="stable")
    rows, sims = rows[by_sim], sims[by_sim]
    batch = index.batch_size
    full_row = len(index.store) > batch and (
        rows.shape[0] >= batch or bool(np.any(sims[1:] == sims[:-1]))
    )
    if full_row:
        full = index.probe_similarities(q_token).astype(np.float64)
        top = np.argpartition(-full, batch - 1)[:batch]
        top = top[np.argsort(-full[top], kind="stable")]
        top = top[full[top] >= alpha]
        rest = ~np.isin(rows, top)
        rows = np.concatenate([top, rows[rest]])
        sims = np.concatenate([full[top], sims[rest]])
    keep = row_ids[rows] >= 0
    if q_token in index.store:
        keep &= rows != index.store.row_of(q_token)  # self-match is above
    token_ids.extend(row_ids[rows[keep]].tolist())
    sims_out.extend(sims[keep].tolist())
    return token_ids, sims_out, full_row


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
    element's block comes from row-blocked probes and a sort of its hits
    (see the module docstring) instead of per-tuple generator machinery.
    The interned column arrays are attached so refinement never
    re-encodes tuples.
    """
    import heapq

    if not (0.0 < alpha <= 1.0):
        raise InvalidParameterError("alpha must be in (0, 1]")
    query = sorted(set(query_tokens))
    if not query:
        raise EmptyQueryError("query set is empty")
    if table is None:
        table = TokenTable.from_vocabulary(vocabulary)
    row_ids, _ = index.store.table_maps(table)
    # Only rows at or above alpha leave a probe block; the mask is taken
    # in float64, as the heap drain's ``sim < alpha`` compares.
    found: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in query]
    for position, start, sims in index.probe_many(query):
        wide = sims.astype(np.float64)
        hit = np.flatnonzero(wide >= alpha)
        if hit.size:
            found[position].append((hit + start, wide[hit]))
    blocks = [
        _per_query_block(
            index, q_token, table.id_of(q_token), alpha, row_ids, hits
        )
        for q_token, hits in zip(query, found)
    ]
    annotate(
        drain_probes=len(query),
        drain_hits=sum(r.shape[0] for hits in found for r, _ in hits),
        drain_full_rows=sum(block[2] for block in blocks),
    )
    # Exact replication of TokenStream's |Q|-way heap merge: entries are
    # (-sim, push_counter, q_index); the counter advances on every push,
    # so equal similarities pop in the reference's insertion order.
    heap: list[tuple[float, int, int]] = []
    counter = 0
    positions = [0] * len(query)
    for q_index, (token_ids, sims, _) in enumerate(blocks):
        if token_ids:
            heapq.heappush(heap, (-sims[0], counter, q_index))
            counter += 1
    out_qi: list[int] = []
    out_tid: list[int] = []
    out_s: list[float] = []
    while heap:
        neg_sim, _, q_index = heapq.heappop(heap)
        token_ids, sims, _ = blocks[q_index]
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
    table: TokenTable | None = None,
) -> MaterializedTokenStream:
    """Drain dispatcher: the columnar block drain when the index can
    probe in row blocks (``probe_many``), the heap drain of
    :meth:`MaterializedTokenStream.drain` otherwise (LSH, IVF, scan)."""
    if hasattr(token_index, "probe_many"):
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
    an exact epoch replay of the pruning decisions.

    Bitwise-identical outcome to the per-tuple loop of
    ``tests/core/refinement_oracle.py``; ``partition`` and ``table``
    stand in for its inverted index / collection pair (everything
    refinement needs about candidates is in the CSR arrays).
    """
    if sim_cache is None:
        sim_cache = {}
    if not sim_cache:
        sim_cache.update(sim_cache_from_stream(stream))

    query_sorted = sorted(query)
    q_col, t_col, s_col = stream.columns(table, query_sorted)
    n_tuples = int(s_col.shape[0])
    last_similarity = float(s_col[-1]) if n_tuples else 1.0
    stats.stream_tuples += n_tuples
    stats.final_stream_similarity = last_similarity

    traj = None
    if n_tuples and partition.n_ids:
        traj = _trajectories(
            query_sorted, (q_col, t_col, s_col), partition, table, stats,
            config, deadline, block_size,
        )
    if traj is None:
        return RefinementOutput(
            survivors=Survivors(
                ids=np.zeros(0, np.int64),
                lower=np.zeros(0),
                upper=np.zeros(0),
            ),
            sim_cache=sim_cache,
            last_similarity=last_similarity,
        )

    # -- exact replay of the pruning schedule --------------------------
    # A trailing 0.0 stands for the exhausted stream (safe mode's caps).
    s_ext = np.append(s_col, 0.0)
    state, replay_bytes = _replay(traj, s_ext, theta, stats, config, deadline)

    # -- freeze survivors ----------------------------------------------
    active = np.flatnonzero(state == 1)
    active = active[np.argsort(traj.ids[active])]
    if traj.cap_tuple is not None:
        final_upper = _sound_bounds(
            traj, s_ext, active, np.full(active.shape[0], n_tuples)
        )
    else:
        final_upper = (
            traj.final_score[active] + traj.final_m[active] * last_similarity
        )
    survivors = Survivors(
        ids=traj.ids[active], lower=traj.final_score[active], upper=final_upper
    )

    columnar_bytes = traj.nbytes + replay_bytes
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


class _Trajectories(NamedTuple):
    """What the trajectory phase hands to :func:`_replay`: one event per
    admission or valid matching extension, in the order the reference
    processes them, and the candidates by local id."""

    at: np.ndarray           # stream position of each event
    lid: np.ndarray          # its candidate's local id
    adm: np.ndarray          # admission (True) or extension (False)
    score: np.ndarray        # S after the event: the bound offered to L_lb
    check_s: np.ndarray      # admission: its first-sight upper bound;
    #                          extension: S of the state it leaves
    check_m: np.ndarray      # extension: m of the state it leaves
    ids: np.ndarray          # set id of each local id
    capacity: np.ndarray     # min(|Q|, |C|)
    final_score: np.ndarray  # S after the candidate's last event
    final_m: np.ndarray      # m after it
    cap_tuple: np.ndarray | None  # safe mode: see _sound_bounds
    nbytes: int              # what the phase holds: state and event log


def _trajectories(
    query_sorted, columns, partition, table, stats, config, deadline,
    block_size,
) -> _Trajectories | None:
    """Every candidate's greedy matching, all candidates at once (see
    the module docstring); ``None`` when the stream reaches no set."""
    q_col, t_col, s_col = columns
    n_tuples = int(s_col.shape[0])
    nq = len(query_sorted)
    offsets = partition.csr.offsets
    posting_sets = partition.csr.sets

    # -- query-level precomputation ------------------------------------
    q_ids = np.fromiter(
        (table.id_of(q_token) for q_token in query_sorted),
        dtype=np.int64,
        count=nq,
    )
    is_query_token = np.zeros(len(table), dtype=bool)
    is_query_token[q_ids[q_ids >= 0]] = True
    # The query tokens' own postings: a candidate's vanilla overlap
    # |Q ∩ C| is the number of them it holds.
    q_owner, q_pos = posting_slices(offsets, q_ids)
    q_sets = posting_sets[q_pos]
    vanilla_init = config.vanilla_initialization
    use_first_sight = config.use_first_sight_ub

    # -- trajectory struct-of-arrays, by local id ----------------------
    # Local ids are handed out at admission, so the state scales with
    # the candidates the stream reaches — at most one per edge — and not
    # with the largest set id.
    reached = t_col[t_col >= 0]
    slots = min(
        partition.n_ids,
        int((offsets[reached + 1] - offsets[reached]).sum()),
    )
    local_of = np.full(partition.n_ids, -1, dtype=np.int64)
    ids = np.zeros(slots, dtype=np.int64)
    capacity = np.zeros(slots, dtype=np.int64)
    score = np.zeros(slots, dtype=np.float64)
    mcount = np.zeros(slots, dtype=np.int64)
    q_matched = np.zeros((nq, slots), dtype=bool)
    # One flag per CSR position: is that member token of its set matched.
    token_matched = np.zeros(partition.csr.total_postings, dtype=bool)
    if vanilla_init:
        # Vanilla initialization marks a candidate's overlap tokens
        # matched at admission. A query token's posting positions are
        # by definition overlap members, so marking them all up front
        # does that for every candidate at once.
        token_matched[q_pos] = True
    cap_tuple = None
    if config.track_caps:
        cap_tuple = np.full((slots, nq), n_tuples, dtype=np.int64)
    admitted = 0
    chunks: list[tuple[np.ndarray, ...]] = []
    observed_total = 0
    valid_total = 0

    for block_start in range(0, n_tuples, block_size):
        if deadline is not None and time.perf_counter() > deadline:
            raise SearchTimeout("refinement exceeded its budget")
        e_tuple, e_pos = posting_slices(
            offsets, t_col[block_start:block_start + block_size]
        )
        if not e_pos.size:
            continue
        e_tuple += block_start
        e_sid = posting_sets[e_pos]
        e_qi = q_col[e_tuple]
        e_s = s_col[e_tuple]
        e_lid = local_of[e_sid]
        # (edge, S after, check S, check m) of this block's events.
        events: list[tuple[np.ndarray, ...]] = []

        # -- admissions (first sight) ------------------------------------
        adm_edge = np.zeros(e_sid.shape[0], dtype=bool)
        fresh = np.flatnonzero(e_lid < 0)
        if fresh.size:
            # A set's first edge admits it: each fresh edge's index,
            # shifted into [-len(edges), -1], goes to its set's local-id
            # slot (still -1, "unseen") and the minimum stays.
            fresh_sid = e_sid[fresh]
            shifted = fresh - e_sid.shape[0]
            np.minimum.at(local_of, fresh_sid, shifted)
            adm_idx = fresh[local_of[fresh_sid] == shifted]
            adm_edge[adm_idx] = True
            new_ids = e_sid[adm_idx]
            new = np.arange(admitted, admitted + new_ids.shape[0])
            local_of[new_ids] = new
            e_lid[fresh] = local_of[fresh_sid]
            ids[new] = new_ids
            capacity[new] = np.minimum(nq, partition.sizes[new_ids])
            overlap = np.zeros(new.shape[0], dtype=np.int64)
            if vanilla_init:
                q_lid = local_of[q_sets]
                mine = q_lid >= admitted
                q_matched[q_owner[mine], q_lid[mine]] = True
                overlap = np.bincount(
                    q_lid[mine] - admitted, minlength=new.shape[0]
                )
                score[new] = overlap
                mcount[new] = overlap
            admitted += new.shape[0]
            a_qi = e_qi[adm_idx]
            a_s = e_s[adm_idx]
            # The discovering edge joins the partial matching (it is the
            # set's maximum-similarity edge; a no-op when either endpoint
            # is already taken by the vanilla overlap).
            a_valid = np.ones(new.shape[0], dtype=bool)
            if vanilla_init:
                a_valid = (
                    ~is_query_token[t_col[e_tuple[adm_idx]]]
                    & ~q_matched[a_qi, new]
                    & (mcount[new] < capacity[new])
                )
            grown = new[a_valid]
            score[grown] += a_s[a_valid]
            mcount[grown] += 1
            q_matched[a_qi[a_valid], grown] = True
            token_matched[e_pos[adm_idx][a_valid]] = True
            m_after = capacity[new] - mcount[new]
            if not use_first_sight:
                upper = np.zeros(new.shape[0], dtype=np.float64)
            elif cap_tuple is not None:
                # Safe Lemma-2 bound at admission: caps are the overlap's
                # 1.0 entries plus the admission edge, every other slot
                # defaults to the current similarity — sum the largest
                # ``capacity`` of them with sequential additions to stay
                # bitwise-faithful to the reference's left-to-right sum.
                remaining = capacity[new] - overlap
                upper = overlap.astype(np.float64)
                for step in range(int(remaining.max())):
                    upper = np.where(remaining > step, upper + a_s, upper)
            else:
                upper = score[new] + m_after * a_s
            events.append(
                (adm_idx, score[new], upper, np.zeros_like(m_after))
            )

        # -- extensions of existing candidates (Lemma 5) -----------------
        ext = np.flatnonzero(~adm_edge)
        if ext.size:
            observed_total += int(ext.shape[0])
            # Per-candidate edges must apply in stream order. Round r
            # applies every candidate's r-th edge of the block, all at
            # once — cross-candidate independence makes the rounds fully
            # vectorized. An edge's round is its rank among its
            # candidate's edges (a sort by (local id, edge) groups them);
            # a candidate has at most one edge per tuple, so ranks fit
            # the block size's dtype and order by a radix sort.
            n_ext = ext.shape[0]
            x_lid = e_lid[ext]
            grouped = np.argsort(x_lid * n_ext + np.arange(n_ext))
            starts = np.flatnonzero(np.diff(x_lid[grouped], prepend=-1))
            rank = np.empty(n_ext, dtype=np.min_scalar_type(block_size))
            rank[grouped] = np.arange(n_ext) - np.repeat(
                starts, np.diff(starts, append=n_ext)
            )
            by_round = ext[np.argsort(rank, kind="stable")]
            x_lid, x_qi, x_pos, x_s = (
                e_lid[by_round], e_qi[by_round], e_pos[by_round], e_s[by_round]
            )
            lo = 0
            for hi in np.cumsum(np.bincount(rank)).tolist():
                r_lid, r_qi, r_pos = x_lid[lo:hi], x_qi[lo:hi], x_pos[lo:hi]
                valid = (
                    ~token_matched[r_pos]
                    & ~q_matched[r_qi, r_lid]
                    & (mcount[r_lid] < capacity[r_lid])
                )
                valid_at = lo + np.flatnonzero(valid)
                lo = hi
                if not valid_at.size:
                    continue
                v_lid = x_lid[valid_at]
                before = score[v_lid]
                score[v_lid] += x_s[valid_at]
                mcount[v_lid] += 1
                q_matched[x_qi[valid_at], v_lid] = True
                token_matched[x_pos[valid_at]] = True
                valid_total += int(v_lid.shape[0])
                events.append((
                    by_round[valid_at],
                    score[v_lid],
                    before,
                    capacity[v_lid] - mcount[v_lid] + 1,
                ))

        if cap_tuple is not None:
            # A cap is fixed by its first edge (the stream descends), and
            # edges ascend in tuple order within a block.
            keys, first = np.unique(e_lid * nq + e_qi, return_index=True)
            flat = cap_tuple.reshape(-1)
            flat[keys] = np.minimum(flat[keys], e_tuple[first])
        if events:
            # Each chunk ascends in edge order: a merge of sorted runs.
            edge = np.concatenate([event[0] for event in events])
            order = np.argsort(edge, kind="stable")
            edge = edge[order]
            chunks.append((e_tuple[edge], e_lid[edge], adm_edge[edge]) + tuple(
                np.concatenate([event[j] for event in events])[order]
                for j in (1, 2, 3)
            ))

    stats.observed_edges += observed_total
    stats.discarded_edges += observed_total - valid_total
    if not chunks:
        return None
    log = [np.concatenate(column) for column in zip(*chunks)]
    held = (local_of, ids, capacity, score, mcount, q_matched, token_matched)
    nbytes = sum(int(array.nbytes) for array in (*held, *log))
    if cap_tuple is not None:
        nbytes += int(cap_tuple.nbytes)
        cap_tuple = cap_tuple[:admitted]
    return _Trajectories(
        *log,
        ids=ids[:admitted],
        capacity=capacity[:admitted],
        final_score=score[:admitted],
        final_m=capacity[:admitted] - mcount[:admitted],
        cap_tuple=cap_tuple,
        nbytes=nbytes,
    )


def _sound_bounds(
    traj: _Trajectories, s_ext: np.ndarray, lids: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Safe mode's sound upper bound of candidates ``lids`` as of tuple
    ``at``: the ``capacity`` largest per-query-element caps, summed left
    to right as the reference does. A cap is the similarity of the
    element's first edge into the candidate — the stream descends, so
    no later edge raises it — or ``s[at]`` while none has streamed
    (``at = n_tuples`` reads the exhausted stream's trailing 0.0)."""
    caps = s_ext[np.minimum(traj.cap_tuple[lids], at[:, None])]
    caps = np.sort(caps, axis=1)[:, ::-1]
    return np.cumsum(caps, axis=1)[
        np.arange(lids.shape[0]), traj.capacity[lids] - 1
    ]


def _replay(
    traj: _Trajectories,
    s_ext: np.ndarray,
    theta: ThetaLB,
    stats: SearchStats,
    config: FilterConfig,
    deadline: float | None,
) -> tuple[np.ndarray, int]:
    """Replay the pruning schedule one ``theta_lb`` epoch at a time.

    Returns the candidate state table by local id (0 unseen, 1
    survivor, 2 pruned) and the bytes the replay held. Every
    ``theta.offer`` is made with the same ``(set id, bound)`` in the
    same order as the reference loop, and every first-sight and sweep
    decision compares the same floats against the same threshold (the
    module docstring says why one check per state and constant-``theta``
    windows suffice), so the pruned set, the counters and ``L_lb`` are
    the reference's.
    """
    n_events = int(traj.at.shape[0])
    state = np.zeros(traj.ids.shape[0], dtype=np.uint8)
    # Scratch: window position of each candidate's first failing check.
    first_fail = np.full(state.shape[0], n_events, dtype=np.int64)
    # theta after each tuple's events, recorded epoch by epoch.
    theta_end = np.zeros(s_ext.shape[0])
    llb, shared = theta.local, theta.shared

    def prunes(lids, s_state, m_state, at):
        """Whether the sweep of tuple ``at`` prunes state ``(m, S)``:
        ``S < theta - m*s``, unless safe mode's sound bound still clears
        ``theta`` (the Lemma-6 veto)."""
        threshold = theta_end[at]
        prune = s_state < threshold - m_state * s_ext[at]
        if traj.cap_tuple is not None and prune.any():
            hit = np.flatnonzero(prune)
            prune[hit] = _sound_bounds(
                traj, s_ext, lids[hit], at[hit]
            ) < threshold[hit]
        return prune

    start = tuple_start = epochs = windows = 0
    window = MIN_WINDOW
    while True:
        # A new epoch: theta as it stands after the last offer.
        bottom = llb.bottom()
        level = bottom if shared is None else max(shared.value, bottom)
        if start == n_events:
            break
        filled = len(llb) >= llb.k
        epochs += 1
        epoch_over = False
        while start < n_events and not epoch_over:
            if deadline is not None and time.perf_counter() > deadline:
                raise SearchTimeout("refinement exceeded its budget")
            windows += 1
            span = slice(start, min(start + window, n_events))
            lid = traj.lid[span]
            adm = traj.adm[span]
            check_s = traj.check_s[span]
            # Checks in this window land on tuples before its last event.
            theta_end[tuple_start:traj.at[span.stop - 1]] = level
            live = state[lid] != 2
            fail = np.zeros(lid.shape[0], dtype=bool)
            if config.use_first_sight_ub:
                fail[adm] = check_s[adm] < level
            if config.use_iub_buckets:
                ext = np.flatnonzero(live & ~adm)
                fail[ext] = prunes(
                    lid[ext],
                    check_s[ext],
                    traj.check_m[span][ext],
                    traj.at[span][ext] - 1,
                )
            failed = np.flatnonzero(fail)
            np.minimum.at(first_fail, lid[failed], failed)
            alive = live & (np.arange(lid.shape[0]) < first_fail[lid])
            killed = failed[first_fail[lid[failed]] == failed]
            first_fail[lid[failed]] = n_events
            # The epoch ends at the first alive event that moves theta:
            # a bound above the bottom, or the one that fills L_lb
            # (offers into an unfilled list leave the bottom at 0.0).
            cut = lid.shape[0]
            if filled:
                offers = np.flatnonzero(alive & (traj.score[span] > bottom))
                if offers.size:
                    cut = int(offers[0]) + 1
                    epoch_over = True
                    theta.offer(
                        int(traj.ids[lid[cut - 1]]),
                        float(traj.score[start + cut - 1]),
                    )
            else:
                for position in np.flatnonzero(alive).tolist():
                    theta.offer(
                        int(traj.ids[lid[position]]),
                        float(traj.score[start + position]),
                    )
                    if len(llb) >= llb.k:
                        cut = position + 1
                        epoch_over = True
                        break
            # Commit the window up to the cut.
            kills = killed[killed < cut]
            first_sight = int(np.count_nonzero(adm[kills]))
            stats.candidates += int(np.count_nonzero(adm[:cut]))
            stats.pruned_first_sight += first_sight
            stats.pruned_bucket += int(kills.shape[0]) - first_sight
            stats.bucket_moves += int(
                np.count_nonzero(alive[:cut] & ~adm[:cut])
            )
            state[lid[:cut][alive[:cut] & adm[:cut]]] = 1
            state[lid[kills]] = 2
            start += cut
            if epoch_over:
                tuple_start = int(traj.at[start - 1])
                window = max(MIN_WINDOW, min(MAX_WINDOW, 2 * cut))
            else:
                window = min(MAX_WINDOW, 2 * window)

    # Final states meet the sweep of the last tuple.
    theta_end[tuple_start:] = level
    if config.use_iub_buckets:
        alive_ids = np.flatnonzero(state == 1)
        last = np.full(alive_ids.shape[0], s_ext.shape[0] - 2)
        pruned = alive_ids[prunes(
            alive_ids,
            traj.final_score[alive_ids],
            traj.final_m[alive_ids],
            last,
        )]
        state[pruned] = 2
        stats.pruned_bucket += int(pruned.shape[0])
    annotate(replay_epochs=epochs, replay_windows=windows)
    return state, int(state.nbytes + first_fail.nbytes + theta_end.nbytes)
