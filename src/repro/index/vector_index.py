"""Exact cosine top-k streaming index — the Faiss substitute.

The paper generates the token stream with a GPU Faiss flat index probed
in batches of 100 (§VIII-A3). An exact flat index returns vocabulary
tokens in exactly descending cosine order; this module reproduces that
stream with a vectorized NumPy scan. Batching is kept (similarities are
argpartitioned lazily in blocks) so probing cost is incremental, the way
Koios consumes it: most streams are abandoned long before exhaustion once
similarities fall below ``alpha``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.embedding.provider import EmbeddingProvider, VectorStore, normalize


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

    def probe_similarities(self, token: str) -> np.ndarray | None:
        """Clipped cosine of ``token`` against every store row.

        One float32 matrix-vector product — numerically the exact
        computation :meth:`stream` releases tuple by tuple, exposed as a
        block so the columnar drain can sort/filter it vectorized.
        Returns None for probes without an embedding (their stream is
        empty) and for an empty store.
        """
        if len(self._store) == 0 or not self._provider.covers(token):
            return None
        probe = normalize(self._provider.vector(token))
        return np.clip(self._store.matrix @ probe, 0.0, 1.0)

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


class BatchedProbeLog:
    """Counts index probes and streamed tuples for instrumentation."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.probes = 0
        self.tuples_streamed = 0

    def stream(self, token: str) -> Iterator[tuple[str, float]]:
        self.probes += 1
        for pair in self._inner.stream(token):
            self.tuples_streamed += 1
            yield pair
