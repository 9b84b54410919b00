"""``posting_slices``: the one expansion of CSR posting slices that
refinement's trajectory blocks and verification's batched pass share."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.index.interning import posting_slices


def literal(offsets, token_ids):
    """Slice by slice: ``offsets[t] .. offsets[t + 1] - 1`` for each
    token in order, nothing for an id outside the table (negative)."""
    owner, positions = [], []
    for index, token_id in enumerate(token_ids):
        if token_id < 0:
            continue
        for position in range(offsets[token_id], offsets[token_id + 1]):
            owner.append(index)
            positions.append(position)
    return owner, positions


class TestPostingSlices:
    def test_empty_slices_and_unknown_tokens(self):
        # token 0: 2 postings, token 1: none, token 2: 3, token 3: none
        offsets = np.array([0, 2, 2, 5, 5], dtype=np.int64)
        token_ids = np.array([2, -1, 1, 0, 3, 2, -1], dtype=np.int64)
        owner, positions = posting_slices(offsets, token_ids)
        assert owner.tolist() == [0, 0, 0, 3, 3, 5, 5, 5]
        assert positions.tolist() == [2, 3, 4, 0, 1, 2, 3, 4]
        assert owner.dtype == positions.dtype == np.int64

    def test_nothing_to_expand(self):
        offsets = np.array([0, 0, 3], dtype=np.int64)
        for token_ids in ([], [-1, -1], [0, -1, 0]):
            owner, positions = posting_slices(
                offsets, np.asarray(token_ids, dtype=np.int64)
            )
            assert owner.size == positions.size == 0

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 4), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_matches_the_literal_formula(self, lengths, data):
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        token_ids = data.draw(
            st.lists(st.integers(-1, len(lengths) - 1), max_size=20)
        )
        owner, positions = posting_slices(
            offsets, np.asarray(token_ids, dtype=np.int64)
        )
        assert (owner.tolist(), positions.tolist()) == literal(
            offsets, token_ids
        )
