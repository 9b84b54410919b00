"""Tests for the Hungarian algorithm and the Lemma-8 early termination.

The scipy assignment solver is the oracle: for non-negative weights, the
maximum-weight optional matching equals scipy's maximum-sum assignment on
the zero-padded square matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.errors import MatchingError
from repro.matching import hungarian_matching


def oracle_score(weights: np.ndarray) -> float:
    size = max(weights.shape)
    padded = np.zeros((size, size))
    padded[: weights.shape[0], : weights.shape[1]] = weights
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum())


weight_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda rows: st.integers(min_value=1, max_value=7).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, width=32),
                min_size=cols,
                max_size=cols,
            ),
            min_size=rows,
            max_size=rows,
        )
    )
).map(lambda rows: np.array(rows, dtype=np.float64))


class TestOptimality:
    def test_fig1_greedy_trap(self):
        # The Fig. 1 C2 structure: greedy takes 0.85 and blocks two 0.8s.
        weights = np.array(
            [
                [0.85, 0.80],  # Charleston: SC, Southern
                [0.80, 0.00],  # Columbia: SC
            ]
        )
        result = hungarian_matching(weights)
        assert result.score == pytest.approx(1.6)

    def test_rectangular_wide(self):
        weights = np.array([[0.9, 0.8, 0.7]])
        assert hungarian_matching(weights).score == pytest.approx(0.9)

    def test_rectangular_tall(self):
        weights = np.array([[0.9], [0.8], [0.95]])
        assert hungarian_matching(weights).score == pytest.approx(0.95)

    def test_empty_dimensions(self):
        assert hungarian_matching(np.zeros((0, 3))).score == 0.0
        assert hungarian_matching(np.zeros((3, 0))).score == 0.0

    def test_all_zero_matrix_has_no_pairs(self):
        result = hungarian_matching(np.zeros((3, 3)))
        assert result.score == 0.0
        assert result.pairs == []

    def test_pairs_are_a_valid_matching(self):
        rng = np.random.default_rng(5)
        weights = rng.random((6, 4))
        result = hungarian_matching(weights)
        rows = [i for i, _ in result.pairs]
        cols = [j for _, j in result.pairs]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))
        assert result.score == pytest.approx(
            sum(weights[i, j] for i, j in result.pairs)
        )

    @settings(max_examples=120, deadline=None)
    @given(weight_matrices)
    def test_matches_scipy_oracle(self, weights):
        result = hungarian_matching(weights)
        assert result.score == pytest.approx(
            oracle_score(weights), abs=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(weight_matrices)
    def test_label_sum_equals_score_on_completion(self, weights):
        # Edges are considered tight within _EPS, so the tracked label
        # sum can exceed the score by up to ~size * _EPS.
        result = hungarian_matching(weights)
        assert result.label_sum == pytest.approx(result.score, abs=1e-6)


class TestValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(MatchingError):
            hungarian_matching(np.array([[-0.1]]))

    def test_rejects_non_matrix(self):
        with pytest.raises(MatchingError):
            hungarian_matching(np.zeros(3))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
    )
    def test_rejects_non_finite_weights(self, bad):
        # Used to fail with an IndexError deep in the tree loop.
        with pytest.raises(MatchingError, match="finite"):
            hungarian_matching(np.array([[bad, 0.8], [0.9, 0.7]]))


class TestEarlyTermination:
    def test_prunes_when_bound_unreachable(self):
        weights = np.array([[0.5, 0.4], [0.3, 0.2]])
        result = hungarian_matching(weights, bound=5.0)
        assert result.pruned
        assert result.label_sum < 5.0

    def test_initial_label_sum_check(self):
        # Sum of row maxima (0.9) is already below the bound: the run
        # must abort before any labeling update.
        weights = np.array([[0.5, 0.4]])
        result = hungarian_matching(weights, bound=2.0)
        assert result.pruned
        assert result.label_updates == 0

    def test_no_prune_when_bound_met(self):
        weights = np.array([[0.9, 0.0], [0.0, 0.8]])
        result = hungarian_matching(weights, bound=1.5)
        assert not result.pruned
        assert result.score == pytest.approx(1.7)

    def test_callable_bound_read_live(self):
        calls = []

        def bound():
            calls.append(None)
            return 0.0

        weights = np.random.default_rng(0).random((5, 5))
        result = hungarian_matching(weights, bound=bound)
        assert not result.pruned
        assert calls  # the live bound was consulted

    @settings(max_examples=80, deadline=None)
    @given(weight_matrices, st.floats(min_value=0.0, max_value=6.0))
    def test_pruned_implies_score_below_bound(self, weights, bound):
        """Lemma 8 soundness: a pruned run certifies SO < bound."""
        result = hungarian_matching(weights, bound=bound)
        if result.pruned:
            assert oracle_score(weights) < bound
        else:
            assert result.score == pytest.approx(
                oracle_score(weights), abs=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(weight_matrices)
    def test_label_sum_upper_bounds_score_when_pruned(self, weights):
        true_score = oracle_score(weights)
        result = hungarian_matching(weights, bound=true_score + 0.5)
        if result.pruned:
            assert result.label_sum >= true_score - 1e-9
