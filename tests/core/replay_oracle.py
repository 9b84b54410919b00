"""Today's per-event pruning replay, kept as the oracle of the epoch replay.

This is the loop :mod:`repro.core.fastpath` ran before the replay went
epoch by epoch, unchanged: one interpreted step per admission or
matching extension, per-``m`` lazy min-heaps standing in for the bucket
structure, a sweep of every heap after every stream tuple, and safe
mode's caps rewound and re-applied tuple by tuple. It takes the event
log as per-block chunks keyed by global edge rank, with global set ids,
and returns the state table indexed by set id.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import FilterConfig
from repro.core.stats import SearchStats
from repro.core.topk import ThetaLB
from repro.errors import SearchTimeout


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
