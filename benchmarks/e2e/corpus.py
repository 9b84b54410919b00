"""Seeded corpora for the end-to-end benchmark, cached on disk by spec hash.

Two corpora, each a pure function of its spec (``--seed`` never reaches
this module: the seed varies the operations, not the data they run on):

* ``dense`` — the cluster-structured corpus of
  ``benchmarks/bench_refinement_fastpath.py`` re-implemented here: every
  query token releases its whole 100-token cluster above alpha, so
  almost every set is a candidate and verification dominates.
* ``family`` — long and sparse: families of near-duplicate sets over
  random-letter tokens whose sibling spellings share a long stem (the
  hashing embedding puts siblings above alpha and everything else far
  below it), so ``theta_k`` is high and pruning does the work.

A corpus is held as CSR arrays of token ids (``offsets``/``members``
into ``tokens``); Python sets of strings are materialised only by
:meth:`Corpus.token_lists`. The family corpus is also saved as a
snapshot with its embedding substrate, which is what the serving
workloads load.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

DENSE_FULL = {
    "kind": "dense",
    "num_sets": 50_000,
    "num_clusters": 50,
    "cluster_size": 100,
    "plain_tokens": 2_000,
    "min_size": 10,
    "max_size": 30,
    "zipf_exponent": 0.8,
    "dim": 32,
    "cluster_similarity": 0.85,
    "alpha": 0.75,
    "k": 10,
    "corpus_seed": 17,
}
DENSE_SMOKE = {**DENSE_FULL, "num_sets": 2_000, "num_clusters": 10}

FAMILY_FULL = {
    "kind": "family",
    "families": 25_000,
    "variants": 8,
    "words": 8_000,
    "siblings": 4,
    "stem_letters": [12, 16],
    "sibling_margin": 0.02,
    "min_size": 5,
    "max_size": 25,
    "zipf_exponent": 0.5,
    "keep": 0.8,
    "swap_sibling": 0.12,
    "dim": 64,
    "alpha": 0.7,
    # below the family size, so the k-th best answer is still a family
    # member and theta_k is high
    "k": 5,
    "corpus_seed": 29,
}
FAMILY_SMOKE = {**FAMILY_FULL, "families": 1_250, "words": 1_000}

#: Manifest-schema description of the family corpus's substrate (the
#: serving default of ``repro.service.bootstrap.substrate_descriptor``).
HASHING_SUBSTRATE = {
    "kind": "hashing-cosine",
    "n_min": 3,
    "n_max": 5,
    "salt": "hashing-embedding",
    "batch_size": 100,
}


def spec_hash(spec: dict) -> str:
    raw = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:16]


@dataclass
class Corpus:
    """One generated corpus: CSR token-id sets plus what built them."""

    spec: dict
    tokens: list[str]
    offsets: np.ndarray
    members: np.ndarray
    #: family corpus only: unit embedding rows aligned with ``tokens``
    #: (the matrix the snapshot persists) and the snapshot's path.
    vectors: np.ndarray | None = None
    snapshot_path: Path | None = None
    #: seconds the generation took, whenever it happened.
    build_seconds: float = 0.0

    @property
    def num_sets(self) -> int:
        return len(self.offsets) - 1

    def member_ids(self, set_id: int) -> np.ndarray:
        return self.members[self.offsets[set_id]:self.offsets[set_id + 1]]

    def token_set(self, set_id: int) -> frozenset[str]:
        tokens = self.tokens
        return frozenset(tokens[t] for t in self.member_ids(set_id).tolist())

    def token_lists(self) -> list[list[str]]:
        """Every set as a list of token strings, in set-id order."""
        tokens = self.tokens
        flat = [tokens[t] for t in self.members.tolist()]
        bounds = self.offsets.tolist()
        return [flat[bounds[i]:bounds[i + 1]] for i in range(self.num_sets)]

    def similar_ids(self, token_id: int) -> range:
        """Token ids above alpha with ``token_id``: the spellings of its
        word (family corpus) or the members of its cluster (dense
        corpus; none for the plain tokens after the clusters)."""
        if self.spec["kind"] == "family":
            group = self.spec["siblings"]
        else:
            group = self.spec["cluster_size"]
            if token_id >= self.spec["num_clusters"] * group:
                return range(0)
        first = token_id - token_id % group
        return range(first, first + group)


# -- generation ------------------------------------------------------------


def dense_clusters(spec: dict) -> dict[str, list[str]]:
    return {
        f"c{ci}": [f"c{ci}_m{m}" for m in range(spec["cluster_size"])]
        for ci in range(spec["num_clusters"])
    }


def _generate_dense(spec: dict) -> Corpus:
    rng = np.random.default_rng(spec["corpus_seed"])
    tokens = [t for members in dense_clusters(spec).values() for t in members]
    tokens += [f"plain_{i}" for i in range(spec["plain_tokens"])]
    weights = 1.0 / np.arange(1, len(tokens) + 1) ** spec["zipf_exponent"]
    weights /= weights.sum()
    # Popularity is assigned to a random permutation of the vocabulary,
    # so clusters mix popular and rare tokens.
    by_rank = rng.permutation(len(tokens))
    sizes = rng.integers(
        spec["min_size"], spec["max_size"] + 1, size=spec["num_sets"]
    )
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    members = np.empty(int(offsets[-1]), dtype=np.int32)
    for i, size in enumerate(sizes.tolist()):
        picks = rng.choice(len(tokens), size=size, replace=False, p=weights)
        members[offsets[i]:offsets[i + 1]] = by_rank[picks]
    return Corpus(spec, tokens, offsets, members)


def _random_words(rng, count: int, lo: int, hi: int) -> list[str]:
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        lengths = rng.integers(lo, hi + 1, size=count - len(words))
        codes = rng.integers(0, 26, size=(len(lengths), hi))
        for row, length in zip(codes, lengths.tolist()):
            word = bytes(letters[row[:length]]).decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words


def _generate_family(spec: dict, provider) -> Corpus:
    rng = np.random.default_rng(spec["corpus_seed"])
    words, siblings = spec["words"], spec["siblings"]
    letters = "abcdefghijklmnopqrstuvwxyz"
    floor = spec["alpha"] + spec["sibling_margin"]
    tokens: list[str] = []
    # token id = word * siblings + sibling: siblings are adjacent. A
    # word's spellings are its stem plus one distinct letter each,
    # redrawn until every pair of them clears alpha by the margin.
    for stem in _random_words(rng, words, *spec["stem_letters"]):
        while True:
            picks = rng.choice(26, size=siblings, replace=False).tolist()
            spellings = [stem + letters[pick] for pick in picks]
            rows = np.stack([provider.vector(t) for t in spellings])
            if float((rows @ rows.T).min()) >= floor:
                break
        tokens.extend(spellings)

    weights = 1.0 / np.arange(1, words + 1) ** spec["zipf_exponent"]
    cdf = np.cumsum(weights / weights.sum())
    word_by_rank = rng.permutation(words)
    families, variants = spec["families"], spec["variants"]
    stem_sizes = rng.integers(
        spec["min_size"], spec["max_size"] + 1, size=families
    )
    rows: list[np.ndarray] = []
    for size in stem_sizes.tolist():
        # Draw with replacement, dedupe keeping draw order, top up until
        # the family's stem has ``size`` distinct words.
        stem_words: list[int] = []
        seen_words: set[int] = set()
        while len(stem_words) < size:
            draws = np.searchsorted(cdf, rng.random(2 * size)).tolist()
            for rank in draws:
                if rank not in seen_words and len(stem_words) < size:
                    seen_words.add(rank)
                    stem_words.append(rank)
        stem = word_by_rank[np.asarray(stem_words)] * siblings
        keep = rng.random((variants, size)) < spec["keep"]
        swap = rng.random((variants, size)) < spec["swap_sibling"]
        other = rng.integers(1, siblings, size=(variants, size))
        for v in range(variants):
            mask = keep[v]
            if mask.sum() < 3:
                mask = np.ones(size, dtype=bool)
            row = stem + np.where(swap[v], other[v], 0)
            rows.append(row[mask].astype(np.int32))
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    return Corpus(spec, tokens, offsets, np.concatenate(rows))


def family_provider(spec: dict):
    from repro.embedding.hashing import HashingEmbeddingProvider

    return HashingEmbeddingProvider(
        dim=spec["dim"],
        n_min=HASHING_SUBSTRATE["n_min"],
        n_max=HASHING_SUBSTRATE["n_max"],
        salt=HASHING_SUBSTRATE["salt"],
    )


def family_substrate(spec: dict) -> dict:
    return {**HASHING_SUBSTRATE, "dim": spec["dim"]}


# -- disk cache ------------------------------------------------------------


def _paths(spec: dict) -> tuple[Path, Path, Path]:
    directory = CACHE_DIR / spec_hash(spec)
    return directory, directory / "sets.npz", directory / "corpus.snap"


def is_cached(spec: dict) -> bool:
    # sets.npz is written last, so it marks the entry complete.
    return _paths(spec)[1].exists()


def load_corpus(spec: dict) -> Corpus:
    """The corpus for ``spec``, generated first if the disk cache does
    not hold it."""
    directory, arrays_path, snapshot_path = _paths(spec)
    if not is_cached(spec):
        build_corpus(spec)
    family = spec["kind"] == "family"
    with np.load(arrays_path, allow_pickle=False) as data:
        return Corpus(
            spec,
            data["tokens"].tolist(),
            data["offsets"],
            data["members"],
            vectors=data["vectors"] if family else None,
            snapshot_path=snapshot_path if family else None,
            build_seconds=float(data["build_seconds"]),
        )


def build_corpus(spec: dict) -> None:
    """Generate ``spec``'s corpus into the disk cache. Each file lands
    via tmp + rename and the arrays file lands last, so an interrupted
    build never leaves a torn entry."""
    started = time.perf_counter()
    directory, arrays_path, snapshot_path = _paths(spec)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    if spec["kind"] == "family":
        from repro.datasets.collection import SetCollection
        from repro.embedding.provider import VectorStore
        from repro.store import save_snapshot

        provider = family_provider(spec)
        corpus = _generate_family(spec, provider)
        store = VectorStore(provider, corpus.tokens)
        # VectorStore rows follow sorted-token order; realign to ids.
        order = [store.row_of(token) for token in corpus.tokens]
        arrays["vectors"] = np.ascontiguousarray(store.matrix[order])
        save_snapshot(
            snapshot_path,
            SetCollection(corpus.token_lists()),
            store=store,
            substrate=family_substrate(spec),
        )
    else:
        corpus = _generate_dense(spec)
    (directory / "spec.json").write_text(
        json.dumps(spec, indent=1) + "\n", encoding="utf-8"
    )
    tmp = arrays_path.with_name(arrays_path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        np.savez(
            handle,
            tokens=np.asarray(corpus.tokens),
            offsets=corpus.offsets,
            members=corpus.members,
            build_seconds=np.float64(time.perf_counter() - started),
            **arrays,
        )
    os.replace(tmp, arrays_path)
