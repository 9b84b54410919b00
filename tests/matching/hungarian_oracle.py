"""The Kuhn–Munkres solver as it was before its initial-labeling
shortcut, kept as the production solver's oracle.

:func:`hungarian_matching` below is the loop
:func:`repro.matching.hungarian.hungarian_matching` ran before roots
that the row-maxima labeling already decides stopped growing an
alternating tree, unchanged: every root sets up its tree arrays and
walks the equality subgraph. ``test_hungarian_oracle.py`` asserts that
both return the same ``score``, ``pairs``, ``pruned``, ``label_sum``
and ``label_updates`` on every input.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import MatchingError
from repro.matching.hungarian import _EPS, MatchingResult, _as_callable


def hungarian_matching(
    weights: np.ndarray,
    *,
    bound: float | Callable[[], float] | None = None,
) -> MatchingResult:
    """Maximum-weight (optional) bipartite matching of a dense matrix.

    Parameters
    ----------
    weights:
        Non-negative dense weight matrix; zero entries are non-edges.
        Because all weights are >= 0, a maximum-weight perfect matching
        on the zero-padded square matrix restricted to positive-weight
        edges is a maximum-weight optional matching.
    bound:
        The EM-early-termination threshold ``theta_lb`` — a float or a
        zero-argument callable re-read after every labeling update. When
        the label sum falls below the bound, the run aborts with
        ``pruned=True`` (the candidate's true score is certainly below
        ``theta_lb``; Lemma 8).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise MatchingError("weights must be a 2-d matrix")
    if weights.size and float(weights.min()) < 0.0:
        raise MatchingError("weights must be non-negative")

    num_rows, num_cols = weights.shape
    if num_rows == 0 or num_cols == 0:
        return MatchingResult(score=0.0, label_sum=0.0)

    read_bound = _as_callable(bound)

    size = max(num_rows, num_cols)
    padded = np.zeros((size, size), dtype=np.float64)
    padded[:num_rows, :num_cols] = weights

    labels_row = padded.max(axis=1).copy()
    labels_col = np.zeros(size, dtype=np.float64)
    label_sum = float(labels_row.sum())
    label_updates = 0

    # Lemma 8 applies to any feasible labeling, including the initial
    # one: if the sum of row maxima is already below the threshold, the
    # candidate's score certainly is too — abort before any work.
    threshold = read_bound()
    if threshold is not None and label_sum < threshold - _EPS:
        return MatchingResult(
            score=0.0, pruned=True, label_sum=label_sum, label_updates=0
        )

    match_of_row = np.full(size, -1, dtype=np.int64)
    match_of_col = np.full(size, -1, dtype=np.int64)

    for root in range(size):
        if match_of_row[root] != -1:
            continue
        # Grow an alternating tree from `root` in the equality subgraph.
        in_tree_row = np.zeros(size, dtype=bool)
        in_tree_col = np.zeros(size, dtype=bool)
        in_tree_row[root] = True
        slack = labels_row[root] + labels_col - padded[root]
        slack_row = np.full(size, root, dtype=np.int64)
        parent_col = np.full(size, -1, dtype=np.int64)

        while True:
            # Find a tight column outside the tree.
            candidates = np.where(~in_tree_col & (slack <= _EPS))[0]
            if candidates.size == 0:
                outside = np.where(~in_tree_col)[0]
                delta = float(slack[outside].min())
                labels_row[in_tree_row] -= delta
                labels_col[in_tree_col] += delta
                slack[outside] -= delta
                # |tree rows| = |tree cols| + 1, so the sum drops by delta.
                label_sum -= delta
                label_updates += 1
                threshold = read_bound()
                if threshold is not None and label_sum < threshold - _EPS:
                    return MatchingResult(
                        score=0.0,
                        pruned=True,
                        label_sum=label_sum,
                        label_updates=label_updates,
                    )
                candidates = np.where(~in_tree_col & (slack <= _EPS))[0]
            col = int(candidates[0])
            parent_col[col] = slack_row[col]
            if match_of_col[col] == -1:
                # Augment along the alternating path ending at `col`.
                while col != -1:
                    row = int(parent_col[col])
                    previous_col = int(match_of_row[row])
                    match_of_col[col] = row
                    match_of_row[row] = col
                    col = previous_col
                break
            in_tree_col[col] = True
            next_row = int(match_of_col[col])
            in_tree_row[next_row] = True
            # The new tree row may tighten slacks of outside columns.
            new_slack = labels_row[next_row] + labels_col - padded[next_row]
            tighter = new_slack < slack
            slack[tighter] = new_slack[tighter]
            slack_row[tighter] = next_row

    pairs = [
        (row, int(match_of_row[row]))
        for row in range(num_rows)
        if 0 <= match_of_row[row] < num_cols
        and weights[row, match_of_row[row]] > 0.0
    ]
    score = float(sum(weights[i, j] for i, j in pairs))
    return MatchingResult(
        score=score,
        pairs=pairs,
        pruned=False,
        label_sum=label_sum,
        label_updates=label_updates,
    )
