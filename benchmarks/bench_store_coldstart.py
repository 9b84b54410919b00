"""Store cold start: snapshot load vs JSON re-index, and incremental
updates vs full rebuild.

The scenario is the ROADMAP's long-lived service redeploying on a >= 50k
set repository. The JSON path pays the full derivation pipeline on every
start — parse, re-tokenize, re-embed the vocabulary, re-build the
inverted index. The snapshot path deserializes the same state from the
binary format of :mod:`repro.store.snapshot`: token table, postings, and
the embedding matrix come back as buffer reads.

The second measurement is steady-state freshness: applying one insert
through the mutable overlay (delta postings + vector-store extend + pool
hot swap) vs rebuilding the engine from scratch, which is what the seed
repo had to do for any change.

Acceptance gates: snapshot cold start >= 3x faster than JSON-plus-
rebuild; incremental update faster than a full rebuild. Results are also
emitted as one JSON line (the machine-readable record the gate is
checked against).
"""

from __future__ import annotations

import json
import string
import time

import pytest

from repro.core.koios import KoiosSearchEngine
from repro.datasets.io import load_collection_json
from repro.embedding.hashing import HashingEmbeddingProvider
from repro.embedding.provider import VectorStore
from repro.index.vector_index import ExactCosineIndex
from repro.service import EnginePool
from repro.sim.cosine import CosineSimilarity
from repro.store import load_snapshot, save_snapshot
from repro.store.mutation import INSERT, Mutation
from repro.utils.rng import make_rng

NUM_SETS = 50_000
VOCAB_SIZE = 20_000
MIN_SIZE, MAX_SIZE = 3, 14
TOKEN_CHARS = 9
DIM = 32
ALPHA = 0.8
K = 10
SEED = 17
REQUIRED_COLDSTART_SPEEDUP = 3.0
UPDATE_ROUNDS = 5

SUBSTRATE = {
    "kind": "hashing-cosine",
    "dim": DIM,
    "n_min": 3,
    "n_max": 5,
    "salt": "hashing-embedding",
    "batch_size": 100,
}


def synthesize_corpus(rng):
    """>= 50k random sets over a diverse random-string vocabulary."""
    letters = list(string.ascii_lowercase)
    rows = rng.integers(0, len(letters), size=(VOCAB_SIZE, TOKEN_CHARS))
    vocabulary = [
        "".join(letters[c] for c in row) + f"_{i}"
        for i, row in enumerate(rows)
    ]
    sizes = rng.integers(MIN_SIZE, MAX_SIZE + 1, size=NUM_SETS)
    flat = rng.integers(0, VOCAB_SIZE, size=int(sizes.sum()))
    mapping = {}
    offset = 0
    for set_id, size in enumerate(sizes):
        members = {
            vocabulary[token_id]
            for token_id in flat[offset:offset + int(size)]
        }
        offset += int(size)
        mapping[f"set_{set_id:06d}"] = sorted(members)
    return mapping


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    """The same >= 50k-set corpus persisted both ways: JSON and snapshot."""
    root = tmp_path_factory.mktemp("coldstart")
    mapping = synthesize_corpus(make_rng(SEED))
    json_path = root / "corpus.json"
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(mapping, handle)

    collection = load_collection_json(json_path)
    provider = HashingEmbeddingProvider(dim=DIM)
    store = VectorStore(provider, collection.vocabulary)
    snap_path = root / "corpus.snap"
    save_snapshot(snap_path, collection, store=store, substrate=SUBSTRATE)
    return json_path, snap_path


def cold_start_from_json(json_path):
    collection = load_collection_json(json_path)
    provider = HashingEmbeddingProvider(dim=DIM)
    store = VectorStore(provider, collection.vocabulary)
    index = ExactCosineIndex(store, provider)
    sim = CosineSimilarity(provider)
    engine = KoiosSearchEngine(collection, index, sim, alpha=ALPHA)
    return collection, index, sim, engine


def cold_start_from_snapshot(snap_path):
    loaded = load_snapshot(snap_path)
    engine = KoiosSearchEngine(
        loaded.collection,
        loaded.token_index,
        loaded.sim,
        alpha=ALPHA,
        inverted_factory=loaded.inverted_factory(),
    )
    return loaded, engine


def test_snapshot_coldstart_vs_json_reindex(corpus_paths, report, benchmark):
    json_path, snap_path = corpus_paths

    started = time.perf_counter()
    collection, _, _, json_engine = cold_start_from_json(json_path)
    json_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loaded, snap_engine = cold_start_from_snapshot(snap_path)
    snap_seconds = time.perf_counter() - started
    coldstart_speedup = json_seconds / snap_seconds

    # Both cold starts must serve identical results.
    rng = make_rng(SEED + 1)
    queries = [
        frozenset(collection[int(set_id)])
        for set_id in rng.integers(0, len(collection), size=3)
    ]
    for query in queries:
        a = json_engine.search(query, K)
        b = snap_engine.search(query, K)
        assert a.ids() == b.ids()
        assert a.scores() == b.scores()

    # Steady-state freshness: one insert through the overlay + hot swap
    # vs rebuilding the engine from scratch on the mutated collection.
    overlay = loaded.mutable()
    pool = EnginePool(
        overlay, loaded.token_index, loaded.sim, alpha=ALPHA
    )
    probe = queries[0]
    pool.search(probe, K)  # warm
    incremental_seconds = []
    for round_id in range(UPDATE_ROUNDS):
        tokens = sorted(probe)[:3] + [f"hot_token_{round_id}"]
        started = time.perf_counter()
        pool.mutate(Mutation(INSERT, f"hot_{round_id}", tokens))
        pool.search(probe, K)
        incremental_seconds.append(time.perf_counter() - started)
    incremental_update = min(incremental_seconds)

    started = time.perf_counter()
    rebuilt = KoiosSearchEngine(
        overlay, loaded.token_index, loaded.sim, alpha=ALPHA
    )
    rebuilt.search(probe, K)
    full_rebuild = time.perf_counter() - started
    update_speedup = full_rebuild / incremental_update

    stats = collection.stats()
    results = {
        "benchmark": "store_coldstart",
        "num_sets": stats.num_sets,
        "num_unique_elements": stats.num_unique_elements,
        "json_cold_seconds": round(json_seconds, 3),
        "snapshot_cold_seconds": round(snap_seconds, 3),
        "coldstart_speedup": round(coldstart_speedup, 2),
        "incremental_update_seconds": round(incremental_update, 4),
        "full_rebuild_seconds": round(full_rebuild, 3),
        "update_speedup": round(update_speedup, 1),
    }

    report()
    report(
        f"store cold start — {stats.num_sets} sets, "
        f"{stats.num_unique_elements} tokens, dim={DIM}"
    )
    report(f"{'path':<30}{'seconds':>9}{'speedup':>9}")
    report(f"{'JSON load + rebuild':<30}{json_seconds:>9.2f}{1.0:>9.2f}")
    report(
        f"{'snapshot load':<30}{snap_seconds:>9.2f}"
        f"{coldstart_speedup:>9.2f}"
    )
    report(
        f"{'full rebuild (1 update)':<30}{full_rebuild:>9.2f}{1.0:>9.2f}"
    )
    report(
        f"{'incremental update':<30}{incremental_update:>9.4f}"
        f"{update_speedup:>9.2f}"
    )
    report(json.dumps(results))

    assert coldstart_speedup >= REQUIRED_COLDSTART_SPEEDUP, (
        f"snapshot cold start only {coldstart_speedup:.2f}x faster than "
        f"JSON re-index (needs >= {REQUIRED_COLDSTART_SPEEDUP}x)"
    )
    assert incremental_update < full_rebuild, results

    # Timed artifact: a snapshot cold start through the full load path.
    benchmark(lambda: cold_start_from_snapshot(snap_path))
