"""Tests for per-candidate bound bookkeeping (Lemmas 2-6)."""

import pytest

from repro.core.bounds import PAPER, SAFE, validate_iub_mode, vanilla_overlap
from repro.errors import InvalidParameterError
from tests.core.refinement_oracle import CandidateState


def make_state(**kwargs) -> CandidateState:
    defaults = dict(set_id=0, candidate_size=4, query_size=3)
    defaults.update(kwargs)
    return CandidateState(**defaults)


class TestModeValidation:
    def test_valid_modes(self):
        assert validate_iub_mode(PAPER) == PAPER
        assert validate_iub_mode(SAFE) == SAFE

    def test_invalid_mode(self):
        with pytest.raises(InvalidParameterError):
            validate_iub_mode("bogus")


class TestFirstSight:
    def test_vanilla_initialization(self):
        state = CandidateState.first_sight(
            7, frozenset({"a", "b", "x"}), frozenset({"a", "b", "q"})
        )
        assert state.matched_score == 2.0
        assert state.matched_count == 2
        assert state.lower_bound == 2.0

    def test_without_vanilla_initialization(self):
        state = CandidateState.first_sight(
            7,
            frozenset({"a", "b", "x"}),
            frozenset({"a", "b", "q"}),
            vanilla_init=False,
        )
        assert state.matched_score == 0.0
        assert state.matched_count == 0

    def test_caps_initialized_for_overlap(self):
        state = CandidateState.first_sight(
            7,
            frozenset({"a", "x"}),
            frozenset({"a", "q"}),
            track_caps=True,
        )
        assert state.caps == {"a": 1.0}


class TestObserve:
    def test_valid_edge_extends_matching(self):
        state = make_state()
        assert state.observe("q1", "c1", 0.9)
        assert state.matched_score == pytest.approx(0.9)
        assert state.m_remaining == 2

    def test_rematch_of_query_token_discarded(self):
        state = make_state()
        state.observe("q1", "c1", 0.9)
        assert not state.observe("q1", "c2", 0.85)
        assert state.matched_score == pytest.approx(0.9)

    def test_rematch_of_candidate_token_discarded(self):
        state = make_state()
        state.observe("q1", "c1", 0.9)
        assert not state.observe("q2", "c1", 0.85)

    def test_capacity_exhaustion(self):
        state = make_state(candidate_size=1, query_size=5)
        assert state.observe("q1", "c1", 0.9)
        assert not state.observe("q2", "c2", 0.8)
        assert state.m_remaining == 0

    def test_caps_tightened_even_for_discarded_edges(self):
        state = make_state(track_caps=True)
        state.observe("q1", "c1", 0.9)
        state.observe("q1", "c2", 0.85)  # discarded, but cap stays 0.9
        assert state.caps["q1"] == 0.9


class TestPaperUpperBound:
    def test_lemma6_formula(self):
        state = make_state(candidate_size=5, query_size=3)
        state.observe("q1", "c1", 0.9)
        # S=0.9, m = min(3,5)-1 = 2: iUB = 0.9 + 2*0.8
        assert state.upper_bound(0.8) == pytest.approx(0.9 + 1.6)

    def test_capacity_uses_min_of_sizes(self):
        state = make_state(candidate_size=2, query_size=10)
        assert state.capacity == 2
        assert state.upper_bound(1.0) == pytest.approx(2.0)

    def test_known_unsound_configuration(self):
        """The counterexample from the module docstring: the paper bound
        can undercut the true overlap once high edges were greedily
        discarded. Documents the deviation justifying safe mode."""
        state = make_state(candidate_size=2, query_size=2)
        state.observe("q1", "c1", 1.0)
        state.observe("q2", "c1", 1.0)  # discarded
        state.observe("q1", "c2", 1.0)  # discarded
        # True SO via (q2,c1), (q1,c2) would be 2.0.
        assert state.upper_bound(0.5) == pytest.approx(1.5)  # < 2.0!


class TestSafeUpperBound:
    def test_requires_caps(self):
        with pytest.raises(InvalidParameterError):
            make_state().safe_upper_bound(0.5)

    def test_sound_on_the_counterexample(self):
        state = make_state(candidate_size=2, query_size=2, track_caps=True)
        state.observe("q1", "c1", 1.0)
        state.observe("q2", "c1", 1.0)
        state.observe("q1", "c2", 1.0)
        # caps: q1 -> 1.0, q2 -> 1.0; capacity 2 => bound 2.0 >= SO.
        assert state.safe_upper_bound(0.5) == pytest.approx(2.0)

    def test_stream_exhausted_drops_default_cap(self):
        state = make_state(candidate_size=3, query_size=3, track_caps=True)
        state.observe("q1", "c1", 0.9)
        live = state.safe_upper_bound(0.8)
        done = state.safe_upper_bound(0.8, stream_exhausted=True)
        assert live == pytest.approx(0.9 + 0.8 + 0.8)
        assert done == pytest.approx(0.9)

    def test_unseen_query_elements_capped_by_stream(self):
        state = make_state(candidate_size=5, query_size=2, track_caps=True)
        assert state.safe_upper_bound(0.7) == pytest.approx(1.4)

    def test_dispatch(self):
        state = make_state(track_caps=True)
        assert state.effective_upper_bound(0.5, PAPER) == state.upper_bound(0.5)
        assert state.effective_upper_bound(0.5, SAFE) == state.safe_upper_bound(
            0.5
        )


class TestResolveAndFreeze:
    def test_freeze_final_upper(self):
        state = make_state()
        state.observe("q1", "c1", 0.9)
        frozen = state.freeze_final_upper(0.8, PAPER, stream_exhausted=True)
        assert frozen == state.final_upper == pytest.approx(0.9 + 2 * 0.8)

    def test_resolve_collapses_bounds(self):
        state = make_state()
        state.observe("q1", "c1", 0.9)
        state.resolve(1.75)
        assert state.matched_score == 1.75
        assert state.final_upper == 1.75
        assert state.checked and state.exact


class TestVanillaOverlapHelper:
    def test_counts_shared_tokens(self):
        assert vanilla_overlap(["a", "b", "a"], frozenset({"a", "c"})) == 1

    def test_disjoint(self):
        assert vanilla_overlap(["a"], frozenset({"b"})) == 0
