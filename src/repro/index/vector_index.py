"""Exact cosine top-k streaming index — the Faiss substitute.

The paper generates the token stream with a GPU Faiss flat index probed
in batches of 100 (§VIII-A3). An exact flat index returns vocabulary
tokens in exactly descending cosine order, and
:meth:`ExactCosineIndex.stream` reproduces that stream with a vectorized
NumPy scan. It keeps the batching (the top ``batch_size`` rows are
argpartitioned first) and is the oracle the heap drain walks. Both
drains read their floats from :meth:`~ExactCosineIndex.probe_many`,
which runs every query element's matrix-vector product on one
``ROW_BLOCK``-row block before the next, so a drain reads the matrix
from memory once. Blocking changes no float: each output row is an
independent dot product by the same BLAS kernel while blocks start on
its row groups and none is a single row (NumPy runs that as a dot); a
GEMM over all probes would change them. OpenBLAS threads a
matrix-vector product only above 7200 rows at 64 dimensions, and a
threaded split can move rows out of their groups, so a block's floats,
unlike a whole large store's, do not depend on the thread count.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.embedding.provider import EmbeddingProvider, VectorStore, normalize

#: Store rows per probe block: 512 KB at 64 float32 dimensions, which
#: stay in L2 across the query's products; a power of two, so blocks
#: start on the BLAS kernel's row groups.
ROW_BLOCK = 2048


class ExactCosineIndex:
    """Streams vocabulary tokens by exact descending cosine similarity.

    Parameters
    ----------
    store:
        The unit-normalized vocabulary vector store.
    provider:
        Embedding provider used to embed probe tokens (probe tokens need
        not be in the store).
    batch_size:
        Tokens are released in sorted blocks of this size; mirrors the
        paper's batched Faiss probing and keeps the per-probe cost at one
        O(|D|) scan plus O(|D| log batch) incremental partial sorts.
    """

    def __init__(
        self,
        store: VectorStore,
        provider: EmbeddingProvider,
        *,
        batch_size: int = 100,
    ) -> None:
        self._store = store
        self._provider = provider
        self._batch_size = max(1, int(batch_size))

    @property
    def store(self) -> VectorStore:
        return self._store

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def extend(self, tokens) -> int:
        """Embed and index tokens the store does not know yet.

        Live collection mutation calls this so inserted vocabulary
        streams immediately (a row absent from the store can never be
        similar to anything). Returns the number of rows added.
        """
        return self._store.extend(tokens)

    def probe_many(
        self, tokens: Sequence[str]
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Clipped cosines of ``tokens`` against the store, block-major:
        ``(position in tokens, first row, sims)`` for every row block and
        every token with an embedding, all tokens' products with a block
        before the next block's. A token's blocks concatenate to
        ``clip(matrix @ probe, 0, 1)`` bitwise.
        """
        probes = [
            (position, normalize(self._provider.vector(token)))
            for position, token in enumerate(tokens)
            if self._provider.covers(token)
        ]
        matrix = self._store.matrix
        rows = matrix.shape[0]
        if not rows:
            return
        # A one-row tail joins the block before it (module docstring).
        edges = [0, *range(ROW_BLOCK, rows - 1, ROW_BLOCK), rows]
        for start, stop in zip(edges, edges[1:]):
            block = matrix[start:stop]
            for position, probe in probes:
                yield position, start, np.clip(block @ probe, 0.0, 1.0)

    def probe_similarities(self, token: str) -> np.ndarray | None:
        """The one-token :meth:`probe_many`: the floats :meth:`stream`
        releases; None without an embedding or for an empty store."""
        blocks = [sims for _, _, sims in self.probe_many([token])]
        return np.concatenate(blocks) if blocks else None

    def stream(self, token: str) -> Iterator[tuple[str, float]]:
        """Yield ``(vocab_token, cosine)`` in non-increasing order.

        Out-of-vocabulary probes (no embedding) yield nothing; negative
        cosines are clamped to zero, matching the [0, 1] similarity range
        of Definition 1 (callers stop at ``alpha > 0`` anyway).
        """
        sims = self.probe_similarities(token)
        if sims is None:
            return
        yield from self._stream_sorted(sims)

    def _stream_sorted(self, sims: np.ndarray) -> Iterator[tuple[str, float]]:
        size = sims.shape[0]
        batch = self._batch_size
        if size > batch:
            # Cheaply split off the top `batch` rows first: streams are
            # usually abandoned at `alpha` after a handful of tuples, so
            # the full sort below is frequently never reached.
            top = np.argpartition(-sims, batch - 1)[:batch]
            top = top[np.argsort(-sims[top], kind="stable")]
            for row in top:
                yield self._store.token_at(int(row)), float(sims[row])
            order = np.argsort(-sims, kind="stable")
            released = set(int(r) for r in top)
            for row in order:
                if int(row) in released:
                    continue
                yield self._store.token_at(int(row)), float(sims[row])
            return
        order = np.argsort(-sims, kind="stable")
        for row in order:
            yield self._store.token_at(int(row)), float(sims[row])

