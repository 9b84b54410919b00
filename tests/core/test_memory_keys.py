"""Every search fills the documented memory-ledger key set, from sizes
the structures report themselves (no object-graph walk)."""

import pytest

from repro.core import FilterConfig
from repro.core.bounds import PAPER, SAFE, CandidateState, candidate_states_nbytes

REFERENCE_KEYS = {
    "inverted_index",
    "token_stream",
    "candidate_states",
    "similarity_cache",
    "topk_lb_list",
    "postproc_upper_bounds",
}
COLUMNAR_KEYS = REFERENCE_KEYS | {"columnar_state", "verify_weight_block"}


def _query(stack):
    return stack.collection[3]


@pytest.mark.parametrize("iub_mode", [PAPER, SAFE])
@pytest.mark.parametrize(
    "engine,keys",
    [("columnar", COLUMNAR_KEYS), ("reference", REFERENCE_KEYS)],
)
def test_search_reports_the_documented_keys(
    tiny_opendata, engine, keys, iub_mode
):
    config = FilterConfig.koios(iub_mode=iub_mode, engine=engine)
    result = tiny_opendata.engine(config=config).search(
        _query(tiny_opendata), k=3
    )
    breakdown = result.stats.memory.breakdown()
    assert set(breakdown) == keys
    for name, size in breakdown.items():
        assert isinstance(size, int) and size > 0, name
    assert result.stats.memory.total_bytes == sum(breakdown.values())


def test_candidate_states_grows_with_survivors(tiny_opendata):
    """Switching the refinement filters off leaves more survivors, and
    the reported footprint follows the survivor count."""
    pruned = tiny_opendata.engine().search(_query(tiny_opendata), k=1)
    unpruned = tiny_opendata.engine(
        config=FilterConfig.koios().without(
            use_first_sight_ub=False, use_iub_buckets=False
        )
    ).search(_query(tiny_opendata), k=1)
    assert unpruned.stats.postprocessed > pruned.stats.postprocessed
    assert (
        unpruned.stats.memory.breakdown()["candidate_states"]
        > pruned.stats.memory.breakdown()["candidate_states"]
    )


def test_state_estimate_counts_safe_mode_caps():
    plain = CandidateState(1, candidate_size=4, query_size=4)
    capped = CandidateState(1, candidate_size=4, query_size=4, track_caps=True)
    capped.observe("q", "t", 0.9)
    assert capped.nbytes() > plain.nbytes() > 0
    few = {i: CandidateState(i, 4, 4) for i in range(2)}
    many = {i: CandidateState(i, 4, 4) for i in range(20)}
    assert candidate_states_nbytes(many) > candidate_states_nbytes(few)
