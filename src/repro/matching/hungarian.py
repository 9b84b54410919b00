"""Kuhn–Munkres (Hungarian) maximum-weight bipartite matching with the
label-sum early-termination filter of the paper's Lemma 8.

The algorithm maintains a feasible labeling ``l`` with
``l(q) + l(c) >= w(q, c)`` and grows alternating trees in the equality
subgraph. Two properties drive Koios:

* for any feasible labeling, ``sum_v l(v)`` upper-bounds the weight of
  every matching, hence upper-bounds ``SO(Q, C)``;
* every labeling update decreases the label sum (the alternating tree has
  one more left vertex than right vertices), so the bound tightens
  monotonically and converges to the optimal score.

Therefore the matching of a candidate can be aborted as soon as the label
sum drops below the current pruning threshold ``theta_lb`` — that is the
EM-Early-Terminated filter. The threshold is read through a callable so a
global, concurrently-improving ``theta_lb`` (shared across partitions and
verification threads) is supported.

Roots the initial labeling decides
----------------------------------
The solver starts from the row-maxima labeling (``l(q) = max_c w(q,
c)``, ``l(c) = 0``) and serves the rows in index order. While no
labeling update has happened, a root whose tree would end after one
step takes its column directly, without the tree's array setup:

* a row with a non-zero maximum takes its lowest tight column
  (``l(q) + l(c) - w(q, c) <= eps``) when that column is free. With
  every column label still 0, the tree's first candidate for the root
  is exactly that column; it is free, so its parent is the root and the
  augmenting path is that one edge;
* an all-zero row (a zero row of ``weights`` or a padding row) takes
  the lowest free column. Its slack is 0 in every column, so the tree
  visits columns in index order. A matched column adds its row ``r'``
  to the tree, whose slack ``max_c w(r', c) - w(r', c)`` is ``>= 0``
  (finite weights: a rounded difference of ``a >= b`` is ``>= 0``) and
  hence never below the root's 0: every column keeps the root as its
  slack parent. The path is root -> first free column, and no other
  row's pair moves.

Any other root grows the tree as usual; later roots take the shortcut
again as long as no labeling update has happened, since the labels and
therefore each row's lowest tight column are unchanged until then. The
free columns are kept in step with every augmentation (each one matches
exactly the column its path ends at). Every run therefore returns the
``score``, ``pairs``, ``pruned``, ``label_sum`` and ``label_updates``
of the tree-only loop bit for bit — pinned against that loop, kept
under ``tests/matching/hungarian_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import MatchingError

_EPS = 1e-9


@dataclass
class MatchingResult:
    """Outcome of a (possibly early-terminated) Hungarian run.

    Attributes
    ----------
    score:
        The maximum matching score; only meaningful when ``pruned`` is
        False.
    pairs:
        Matched ``(row, col)`` index pairs with non-zero weight.
    pruned:
        True when the run was aborted by the early-termination bound;
        ``label_sum`` is then a certified upper bound on the true score.
    label_sum:
        Final value of ``sum_v l(v)``; equals ``score`` for completed
        runs.
    label_updates:
        Number of labeling improvements performed (used to measure how
        early terminations save work).
    tree_roots:
        Number of roots that grew an alternating tree; the others were
        decided by the initial labeling (see the module docstring).
    """

    score: float
    pairs: list[tuple[int, int]] = field(default_factory=list)
    pruned: bool = False
    label_sum: float = 0.0
    label_updates: int = 0
    tree_roots: int = 0


def initial_label_sum(weights: np.ndarray) -> float:
    """Label sum of the canonical initial feasible labeling (row maxima).

    Computed exactly as :func:`hungarian_matching` computes it before its
    first labeling update — the row maxima of the zero-padded square
    matrix, summed over the padded length — so the returned float is
    bitwise-identical to the ``label_sum`` a run on ``weights`` starts
    from. The columnar verification engine uses this to apply the
    Lemma-8 initial check without paying for the padded matrix.
    """
    num_rows, num_cols = weights.shape
    size = max(num_rows, num_cols)
    labels = np.zeros(size, dtype=np.float64)
    if num_rows and num_cols:
        # Weights are non-negative, so the padded row maxima equal the
        # raw row maxima; padding rows stay 0.
        labels[:num_rows] = weights.max(axis=1)
    return float(labels.sum())


def hungarian_matching(
    weights: np.ndarray,
    *,
    bound: float | Callable[[], float] | None = None,
) -> MatchingResult:
    """Maximum-weight (optional) bipartite matching of a dense matrix.

    Parameters
    ----------
    weights:
        Finite, non-negative dense weight matrix; zero entries are
        non-edges. Because all weights are >= 0, a maximum-weight
        perfect matching on the zero-padded square matrix restricted to
        positive-weight edges is a maximum-weight optional matching.
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
    if not np.isfinite(weights).all():
        raise MatchingError("weights must be finite")
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
    # The roots the initial labeling decides (see the module docstring):
    # each row's lowest tight column, the all-zero rows, and the free
    # columns in index order, kept in step with every augmentation.
    first_tight = (
        ((labels_row[:, None] + labels_col) - padded <= _EPS)
        .argmax(axis=1)
        .tolist()
    )
    zero_row = (labels_row == 0.0).tolist()
    free = list(range(size))
    tree_roots = 0

    for root in range(size):
        if match_of_row[root] != -1:
            continue
        if label_updates == 0:
            col = free[0] if zero_row[root] else first_tight[root]
            if match_of_col[col] == -1:
                free.remove(col)
                match_of_col[col] = root
                match_of_row[root] = col
                continue
        # Grow an alternating tree from `root` in the equality subgraph.
        tree_roots += 1
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
                        tree_roots=tree_roots,
                    )
                candidates = np.where(~in_tree_col & (slack <= _EPS))[0]
            col = int(candidates[0])
            parent_col[col] = slack_row[col]
            if match_of_col[col] == -1:
                # Augment along the alternating path ending at `col`.
                free.remove(col)
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
        tree_roots=tree_roots,
    )


def _as_callable(
    bound: float | Callable[[], float] | None,
) -> Callable[[], float | None]:
    if bound is None:
        return lambda: None
    if callable(bound):
        return bound
    value = float(bound)
    return lambda: value
