"""The solver against its oracle: the tree-only Kuhn–Munkres loop.

Roots the initial labeling decides take their column without growing an
alternating tree (the module docstring of
:mod:`repro.matching.hungarian` has the proof). These properties check
that this changes nothing a caller can see: on every input, the
production solver and ``hungarian_oracle.hungarian_matching`` return
the same ``score``, ``pairs``, ``pruned``, ``label_sum`` and
``label_updates``, compared with ``==`` — floats bit for bit.

The inputs lean on what could tell the two apart: dyadic weights
(exact sums, so ties stay ties), all-zero rows and columns, both
rectangular shapes, and bounds that prune at the entry check, mid-run,
or rise on every read. ``HYPOTHESIS_PROFILE=thorough`` runs 2000
derandomized examples instead of 300.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.matching.hungarian import hungarian_matching, initial_label_sum

from tests.matching.hungarian_oracle import (
    hungarian_matching as oracle_matching,
)

FIELDS = ("score", "pairs", "pruned", "label_sum", "label_updates")

#: Tie-heavy dyadic weights: every sum of them is exact. The sparse
#: alphabet makes rows with tied maxima and whole zero rows common.
DYADIC = (0.0, 0.625, 0.75, 0.875, 1.0)
SPARSE = (0.0, 0.0, 0.0, 0.5, 1.0)

EXAMPLES = max(300, settings().max_examples)


@st.composite
def weight_matrices(draw) -> np.ndarray:
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    cell = draw(
        st.sampled_from([
            st.sampled_from(DYADIC),
            st.sampled_from(SPARSE),
            st.floats(0.0, 1.0, width=32) | st.just(0.0),
        ])
    )
    weights = np.array(
        draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)),
        dtype=np.float64,
    ).reshape(rows, cols)
    zero_rows = draw(st.lists(st.integers(0, rows - 1), max_size=rows))
    zero_cols = draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    weights[zero_rows] = 0.0
    weights[:, zero_cols] = 0.0
    return weights


@st.composite
def bounds(draw, weights: np.ndarray):
    """A factory for the solver's ``bound``: none, a float, or a callable
    that rises by ``step`` on every read (a shared ``theta_lb`` other
    searches raise while this run is going). A factory, because the
    rising bound has state and each solver needs its own."""
    start = initial_label_sum(weights)
    kind = draw(st.sampled_from(["none", "float", "rising"]))
    if kind == "none":
        return lambda: None
    fraction = draw(st.floats(0.0, 1.1))
    if kind == "float":
        value = fraction * start
        return lambda: value
    step = draw(st.floats(0.0, 0.5))

    def rising():
        reads = 0

        def read() -> float:
            nonlocal reads
            reads += 1
            return fraction * start + step * (reads - 1)

        return read

    return rising


@st.composite
def runs(draw):
    weights = draw(weight_matrices())
    return weights, draw(bounds(weights))


class TestAgainstOracle:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(runs())
    def test_all_five_fields_equal(self, run):
        weights, make_bound = run
        got = hungarian_matching(weights, bound=make_bound())
        expected = oracle_matching(weights, bound=make_bound())
        for name in FIELDS:
            assert getattr(got, name) == getattr(expected, name), name

    def test_tree_roots_count_the_fall_throughs(self):
        # Row 0 takes column 0, row 1's only tight column is taken: one
        # tree. A diagonal needs none.
        conflict = np.array([[1.0, 0.5], [0.9, 0.0]])
        assert hungarian_matching(conflict).tree_roots == 1
        assert hungarian_matching(np.eye(3)).tree_roots == 0
        assert hungarian_matching(np.zeros((2, 3))).tree_roots == 0
        # Row 1's tree moves row 0 to column 1 without a labeling
        # update; the zero row must then see column 2 as the lowest
        # free one, not column 1.
        moved = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        result = hungarian_matching(moved)
        assert result.pairs == [(0, 1), (1, 0)]
        assert result.label_updates == 0
        assert result.tree_roots == 1
