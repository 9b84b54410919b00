"""Cosine similarity over an embedding provider.

This is the ``sim`` used in all of the paper's experiments (cosine of
FastText vectors). Identical tokens score 1.0 even when they are
out-of-vocabulary — that is exactly the paper's OOV rule ("if the query
contains the same tokens", §V) — and any pair involving an uncovered
token otherwise scores 0. Negative cosines are clamped to 0 to satisfy
the [0, 1] range of Definition 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embedding.provider import EmbeddingProvider, normalize
from repro.sim.base import SimilarityFunction


class CosineSimilarity(SimilarityFunction):
    """Cosine of (unit-normalized) embedding vectors.

    ``store`` optionally backs the similarity with an existing
    :class:`~repro.embedding.provider.VectorStore`: vocabulary tokens
    then read their unit row straight out of the store's matrix — a
    zero-copy view, possibly of a memory-mapped snapshot section —
    instead of re-deriving the embedding through the provider and
    caching a private heap copy per process. Store rows are built as
    ``normalize(provider.vector(token))``, the exact expression used
    here, so the backed and unbacked paths are bitwise identical;
    tokens outside the store (e.g. uncovered query tokens) fall back to
    the provider as before.
    """

    def __init__(self, provider: EmbeddingProvider, *, store=None) -> None:
        self._provider = provider
        self._store = store
        # None records out-of-vocabulary tokens so the provider is only
        # consulted once per token.
        self._unit_cache: dict[str, np.ndarray | None] = {}
        # Shared stand-in row for OOV tokens in matrix(); allocated once
        # instead of per call (every OOV entry reuses the same buffer —
        # it is only ever read).
        self._zero = np.zeros(provider.dim, dtype=np.float32)
        # Store-less table_rows(): (table, rows, filled) — unit rows of
        # one token table by id, filled on first use.
        self._table_rows: tuple | None = None

    @property
    def provider(self) -> EmbeddingProvider:
        return self._provider

    def _unit_vector(self, token: str) -> np.ndarray | None:
        """Unit vector for ``token`` or None if out-of-vocabulary."""
        if token in self._unit_cache:
            return self._unit_cache[token]
        store = self._store
        if store is not None and token in store:
            vec = store.vector(token)
            self._unit_cache[token] = vec
            return vec
        if not self._provider.covers(token):
            self._unit_cache[token] = None
            return None
        vec = normalize(self._provider.vector(token))
        self._unit_cache[token] = vec
        return vec

    def score(self, a: str, b: str) -> float:
        if a == b:
            return 1.0
        vec_a = self._unit_vector(a)
        vec_b = self._unit_vector(b)
        if vec_a is None or vec_b is None:
            return 0.0
        return float(max(0.0, np.dot(vec_a, vec_b)))

    def unit_rows(self, tokens: Sequence[str]) -> np.ndarray:
        """Stacked unit vectors for ``tokens`` (shared zero row for OOV).

        This is exactly the embedding-matrix construction of
        :meth:`matrix`; the columnar verification engine
        (:mod:`repro.core.fastpath_verify`) builds its query rows with it.
        """
        zero = self._zero
        unit = self._unit_vector
        return np.stack(
            [v if (v := unit(t)) is not None else zero for t in tokens]
        )

    def table_rows(self, table, token_ids: np.ndarray) -> np.ndarray:
        """:meth:`unit_rows` of the ``table`` tokens ``token_ids``, bitwise:
        with a backing store, one gather from its matrix through its
        table id -> row map (``VectorStore.table_maps``); tokens outside
        the store take the provider / zero-row path. Without a store,
        one gather from this similarity's own rows of ``table``, stacked
        the first time an id is asked for and kept for that table
        object (held, so a collected table's reused ``id()`` cannot
        hit; a new table starts over)."""
        tokens = table.tokens
        store = self._store
        if store is None or not len(store):
            cached = self._table_rows
            if cached is None or cached[0] is not table:
                cached = self._table_rows = (
                    table,
                    np.zeros((len(table), self._zero.shape[0]), np.float32),
                    np.zeros(len(table), dtype=bool),
                )
            _, unit, filled = cached
            fresh = token_ids[~filled[token_ids]]
            if fresh.size:
                unit[fresh] = self.unit_rows([tokens[i] for i in fresh.tolist()])
                filled[fresh] = True
            return unit[token_ids]
        rows = store.table_maps(table)[1][token_ids]
        out = store.matrix[np.maximum(rows, 0)]
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            out[missing] = self.unit_rows(
                [tokens[i] for i in token_ids[missing].tolist()]
            )
        return out

    def matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Vectorized similarity matrix with the identical-token and OOV
        rules applied."""
        row_matrix = self.unit_rows(rows)
        col_matrix = self.unit_rows(cols)
        out = np.clip(row_matrix @ col_matrix.T, 0.0, 1.0).astype(np.float64)
        col_index = {}
        for j, token in enumerate(cols):
            col_index.setdefault(token, []).append(j)
        for i, token in enumerate(rows):
            for j in col_index.get(token, ()):
                out[i, j] = 1.0
        return out
