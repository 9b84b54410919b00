"""Every search fills the documented memory-ledger key set, from sizes
the structures report themselves (no object-graph walk)."""

import pytest

from repro.core import FilterConfig, KoiosSearchEngine
from repro.core.bounds import PAPER, SAFE
from repro.datasets import SetCollection
from repro.embedding import PinnedSimilarityModel
from repro.sim import CallableSimilarity
from tests.core.refinement_oracle import CandidateState, states_nbytes
from tests.helpers import ScanTokenIndex

KEYS = {
    "inverted_index",
    "token_stream",
    "candidate_states",
    "similarity_cache",
    "topk_lb_list",
    "postproc_upper_bounds",
    "columnar_state",
    "verify_weight_block",
}


def _query(stack):
    return stack.collection[3]


@pytest.mark.parametrize("iub_mode", [PAPER, SAFE])
def test_search_reports_the_documented_keys(tiny_opendata, iub_mode):
    config = FilterConfig.koios(iub_mode=iub_mode)
    result = tiny_opendata.engine(config=config).search(
        _query(tiny_opendata), k=3
    )
    breakdown = result.stats.memory.breakdown()
    assert set(breakdown) == KEYS
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


@pytest.mark.parametrize("iub_mode", [PAPER, SAFE])
def test_columnar_state_scales_with_candidates_not_set_ids(iub_mode):
    """``columnar_state`` is what the search itself holds — candidate
    state by local id, the event log and the replay's arrays — so sets
    the stream never reaches cost one local-id slot (8 bytes) per set
    id and one matched flag per posting, nothing as wide as the query.
    The partition's CSR view belongs to the engine and is not in it."""
    related = [
        {"apple", "pear", "plum"},
        {"apple", "grape", "kiwi"},
        {"pear", "cherry"},
    ]
    sims = {("apple", "cherry"): 0.9, ("kiwi", "grape"): 0.85}
    query = {"apple", "pear", "kiwi", "plum", "cherry", "fig", "lime"}
    config = FilterConfig.koios(iub_mode=iub_mode)

    def columnar_state(unreached):
        sets = related + [{f"u{i}a", f"u{i}b"} for i in range(unreached)]
        collection = SetCollection(sets)
        sim = CallableSimilarity(PinnedSimilarityModel(sims))
        engine = KoiosSearchEngine(
            collection,
            ScanTokenIndex(collection.vocabulary, sim),
            sim,
            alpha=0.7,
            config=config,
        )
        result = engine.search(query, k=2)
        assert result.stats.candidates == len(related)
        return result.stats.memory.breakdown()["columnar_state"]

    assert columnar_state(2000) - columnar_state(1000) == 1000 * (8 + 2)


def test_state_estimate_counts_safe_mode_caps():
    plain = CandidateState(1, candidate_size=4, query_size=4)
    capped = CandidateState(1, candidate_size=4, query_size=4, track_caps=True)
    capped.observe("q", "t", 0.9)
    assert capped.nbytes() > plain.nbytes() > 0
    few = {i: CandidateState(i, 4, 4) for i in range(2)}
    many = {i: CandidateState(i, 4, 4) for i in range(20)}
    assert states_nbytes(many) > states_nbytes(few)
