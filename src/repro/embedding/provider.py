"""Embedding provider protocol and an in-memory vector store.

The paper computes element similarity as the cosine of FastText vectors.
We abstract "something that maps tokens to vectors" behind
:class:`EmbeddingProvider` so both substitutes (hashing n-gram embeddings
and the planted-cluster synthetic model) plug into the same similarity
function and vector index.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.errors import VocabularyError


@runtime_checkable
class EmbeddingProvider(Protocol):
    """Maps tokens to fixed-dimension vectors.

    ``vector`` may raise :class:`VocabularyError` for out-of-vocabulary
    tokens; ``covers`` reports membership without raising. Vectors are
    not required to be unit-normalized — consumers normalize.
    """

    @property
    def dim(self) -> int:
        """Dimensionality of produced vectors."""
        ...

    def covers(self, token: str) -> bool:
        """Whether this provider has a vector for ``token``."""
        ...

    def vector(self, token: str) -> np.ndarray:
        """The vector for ``token`` (shape ``(dim,)``, dtype float32)."""
        ...


def normalize(vec: np.ndarray) -> np.ndarray:
    """Unit-normalize a vector; zero vectors are returned unchanged so
    their cosine with anything is 0 rather than NaN."""
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return vec.astype(np.float32)
    return (vec / norm).astype(np.float32)


class VectorStore:
    """A dense matrix of unit-normalized vectors for a fixed vocabulary.

    This is the structure fed to the vector index (the Faiss substitute):
    it materializes the provider's vectors for exactly the tokens that
    appear in the searched collection, mirroring how the paper builds one
    Faiss index per dataset.
    """

    def __init__(self, provider: EmbeddingProvider, tokens: Iterable[str]) -> None:
        covered = [t for t in sorted(set(tokens)) if provider.covers(t)]
        self._provider = provider
        self._tokens: list[str] = covered
        self._token_to_row: dict[str, int] = {
            token: row for row, token in enumerate(covered)
        }
        if covered:
            matrix = np.stack([normalize(provider.vector(t)) for t in covered])
        else:
            matrix = np.zeros((0, provider.dim), dtype=np.float32)
        self._matrix = matrix.astype(np.float32)
        self._dim = provider.dim
        self._table_maps: tuple | None = None

    @classmethod
    def from_state(
        cls,
        provider: EmbeddingProvider,
        tokens: list[str],
        matrix: np.ndarray,
    ) -> "VectorStore":
        """Adopt an already-normalized ``(len(tokens), dim)`` matrix.

        The snapshot loader uses this to skip re-embedding the whole
        vocabulary on cold start; rows must align with ``tokens``.
        """
        store = cls.__new__(cls)
        store._provider = provider
        store._tokens = list(tokens)
        store._token_to_row = {
            token: row for row, token in enumerate(store._tokens)
        }
        store._matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        store._dim = provider.dim
        store._table_maps = None
        return store

    def extend(self, tokens: Iterable[str]) -> int:
        """Embed and append any ``tokens`` not yet in the store.

        Live collection mutation grows the vocabulary; extending the
        store (instead of rebuilding it) keeps the incremental-update
        path free of the O(|D|) embedding pass. Returns the number of
        rows added. Rows for tokens that later leave the vocabulary are
        left in place — the token stream filters on the collection
        vocabulary, so stale rows cost a little scan time but can never
        surface in results.
        """
        fresh = [
            t for t in sorted(set(tokens))
            if t not in self._token_to_row and self._provider.covers(t)
        ]
        if not fresh:
            return 0
        rows = np.stack([normalize(self._provider.vector(t)) for t in fresh])
        self._matrix = np.concatenate(
            [self._matrix, rows.astype(np.float32)], axis=0
        )
        for token in fresh:
            self._token_to_row[token] = len(self._tokens)
            self._tokens.append(token)
        return len(fresh)

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def matrix(self) -> np.ndarray:
        """The ``(num_tokens, dim)`` unit-normalized matrix (read-only view)."""
        view = self._matrix.view()
        view.setflags(write=False)
        return view

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_row

    def row_of(self, token: str) -> int:
        try:
            return self._token_to_row[token]
        except KeyError:
            raise VocabularyError(f"token not in vector store: {token!r}") from None

    def token_at(self, row: int) -> str:
        return self._tokens[row]

    def table_maps(self, table) -> tuple[np.ndarray, np.ndarray]:
        """Store row -> ``table`` id and ``table`` id -> store row (-1
        where the other side lacks the token: stale rows, see
        :meth:`extend`, are the drain's vocabulary filter). Cached per
        (table, store size) — the store only grows — holding the table
        itself, so a collected table's reused ``id()`` cannot hit."""
        cached = self._table_maps
        if cached is None or cached[:2] != (table, len(self._tokens)):
            ids = table.encode(self._tokens)
            rows = np.full(len(table), -1, dtype=np.int64)
            rows[ids[ids >= 0]] = np.flatnonzero(ids >= 0)
            cached = self._table_maps = (table, len(self._tokens), ids, rows)
        return cached[2], cached[3]

    def vector(self, token: str) -> np.ndarray:
        return self._matrix[self.row_of(token)]

    def coverage(self, tokens: Iterable[str]) -> float:
        """Fraction of ``tokens`` present in the store.

        The paper filters OpenData/WDC sets to >= 70% pre-trained vector
        coverage; dataset generators use this to implement that filter.
        """
        tokens = list(tokens)
        if not tokens:
            return 0.0
        hits = sum(1 for t in tokens if t in self._token_to_row)
        return hits / len(tokens)
