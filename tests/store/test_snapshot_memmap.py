"""The zero-copy (memmap) snapshot load path.

``load_snapshot`` defaults to mapping the file and slicing sections as
read-only array views; ``mmap=False`` keeps the old heap-decoding path.
Both must be *bitwise* interchangeable — same manifest, same arrays,
same postings, same search results — while the mapped path stays lazy
(no Python materialization at load time), refuses writes, and lets a
second loader of the same file ride the first one's page cache instead
of duplicating the posting sections on the heap.
"""

import gc

import numpy as np
import pytest

from repro.core.config import FilterConfig
from repro.datasets import SetCollection
from repro.errors import InvalidParameterError, SnapshotError
from repro.index import InvertedIndex
from repro.index.interning import TokenTable, csr_from_index
from repro.service import EnginePool
from repro.store import (
    MutableSetCollection,
    SnapshotSetCollection,
    load_snapshot,
    save_snapshot,
    verify_snapshot_checksum,
)
from repro.store.mutable import DeltaInvertedIndex
from repro.utils.rng import make_rng

SUBSTRATE = {
    "kind": "hashing-cosine",
    "dim": 16,
    "n_min": 3,
    "n_max": 5,
    "salt": "hashing-embedding",
    "batch_size": 100,
}

NUM_SETS = 120
VOCAB = 150
SEED = 41


def _corpus():
    rng = make_rng(SEED)
    pool = [f"token{i:03d}" for i in range(VOCAB)]
    sets = []
    for _ in range(NUM_SETS):
        size = int(rng.integers(3, 9))
        members = rng.choice(VOCAB, size=size, replace=False)
        sets.append({pool[j] for j in members})
    names = [f"set-{i:04d}" for i in range(NUM_SETS)]
    return SetCollection(sets, names=names), pool


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def snap_path(corpus, tmp_path_factory):
    collection, _ = corpus
    from repro.embedding import HashingEmbeddingProvider, VectorStore

    provider = HashingEmbeddingProvider(dim=SUBSTRATE["dim"])
    store = VectorStore(provider, collection.vocabulary)
    path = tmp_path_factory.mktemp("memmap") / "corpus.snap"
    save_snapshot(path, collection, store=store, substrate=SUBSTRATE)
    return path


@pytest.fixture(scope="module")
def queries(corpus):
    _, pool = corpus
    rng = make_rng(SEED + 1)
    out = []
    for _ in range(8):
        size = int(rng.integers(3, 7))
        members = rng.choice(VOCAB, size=size, replace=False)
        out.append(frozenset(pool[j] for j in members))
    return out


class TestBitwiseEquivalence:
    def test_sections_and_manifest_match_heap_load(self, snap_path):
        mapped = load_snapshot(snap_path)
        heap = load_snapshot(snap_path, mmap=False)
        assert mapped.manifest == heap.manifest
        assert mapped.tokens == heap.tokens
        # Both paths serve names lazily; materialize for comparison.
        assert list(mapped.names) == list(heap.names)
        for field in (
            "set_lengths",
            "set_members",
            "posting_lengths",
            "posting_members",
        ):
            a = np.asarray(getattr(mapped, field))
            b = np.asarray(getattr(heap, field))
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(mapped.csr.offsets, heap.csr.offsets)
        assert np.array_equal(mapped.csr.sets, heap.csr.sets)

    def test_collection_and_postings_match(self, corpus, snap_path):
        collection, _ = corpus
        mapped = load_snapshot(snap_path)
        heap = load_snapshot(snap_path, mmap=False)
        assert isinstance(mapped.collection, SnapshotSetCollection)
        assert len(mapped.collection) == len(collection)
        for set_id in collection.ids():
            assert mapped.collection[set_id] == heap.collection[set_id]
            assert mapped.collection[set_id] == collection[set_id]
            assert mapped.collection.name_of(set_id) == collection.name_of(
                set_id
            )
        assert mapped.collection.stats() == collection.stats()
        assert mapped.collection.vocabulary == collection.vocabulary
        assert mapped.postings == heap.postings
        fresh = InvertedIndex(collection)
        for token in collection.vocabulary:
            assert mapped.postings.get(token, []) == fresh.sets_containing(
                token
            )

    def test_embedding_matrix_matches_bitwise(self, snap_path):
        mapped = load_snapshot(snap_path)
        heap = load_snapshot(snap_path, mmap=False)
        assert mapped.token_index is not None
        a = mapped.token_index.store.matrix
        b = heap.token_index.store.matrix
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("partitions", [1, 3])
    def test_search_results_identical(self, snap_path, queries, partitions):
        engines = []
        for mmap in (True, False):
            loaded = load_snapshot(snap_path, mmap=mmap)
            engines.append(
                EnginePool(
                    loaded.collection,
                    loaded.token_index,
                    loaded.sim,
                    alpha=0.7,
                    shards=partitions,
                    config=FilterConfig.koios(),
                    inverted_factory=loaded.inverted_factory(),
                )
            )
        mapped_engine, heap_engine = engines
        for query in queries:
            got = mapped_engine.search(query, k=10)
            want = heap_engine.search(query, k=10)
            assert [
                (e.set_id, e.name, e.score) for e in got.entries
            ] == [(e.set_id, e.name, e.score) for e in want.entries]

    def test_inverted_factory_partition_matches_python_scan(
        self, corpus, snap_path
    ):
        collection, _ = corpus
        loaded = load_snapshot(snap_path)
        factory = loaded.inverted_factory()
        ids = list(range(0, len(collection), 3))
        restricted = factory(ids)
        reference = InvertedIndex(collection, ids)
        assert len(restricted) == len(reference)
        for token in collection.vocabulary:
            assert restricted.sets_containing(
                token
            ) == reference.sets_containing(token)
        assert restricted.stats() == reference.stats()


class TestLaziness:
    def test_load_defers_python_materialization(self, snap_path):
        loaded = load_snapshot(snap_path)
        # cached_property only lands in __dict__ once accessed; the load
        # itself must not touch any of the heavy materializations.
        assert "collection" not in loaded.__dict__
        assert "postings" not in loaded.__dict__
        assert "csr" not in loaded.__dict__

    def test_mutable_overlay_stays_lazy_until_written(self, snap_path):
        loaded = load_snapshot(snap_path)
        overlay = loaded.mutable()
        assert overlay._postings == {}
        assert overlay._name_to_id is None
        # Reading a posting must not copy it onto the heap.
        token = loaded.tokens[0]
        posting = overlay.posting_of(token)
        assert posting is None or not isinstance(posting, list)
        assert overlay._postings == {}

    def test_name_map_of_a_lazy_overlay(self, tmp_path):
        """The first keyed access decodes the name section in bulk —
        non-ASCII names take the per-entry decode — and maps live names
        only; duplicates are rejected there, naming the culprit."""
        sets = [{"a"}, {"b"}, {"a", "c"}]
        for names in (["x", "y", "z"], ["x", "zoë", "日本"]):
            path = tmp_path / "names.snap"
            save_snapshot(path, SetCollection(sets, names=names))
            loaded = load_snapshot(path)
            assert loaded.names.tolist() == names == list(loaded.names)
            overlay = loaded.mutable()
            assert overlay.id_of(names[2]) == 2
            overlay.delete(names[1])
            assert overlay.replace(names[0], {"c"}) == 3
            assert overlay._names_map() == {names[2]: 2, names[0]: 3}
        path = tmp_path / "dup.snap"
        save_snapshot(path, SetCollection(sets, names=["x", "y", "x"]))
        overlay = load_snapshot(path).mutable()
        with pytest.raises(
            InvalidParameterError, match="duplicate set name: 'x'"
        ):
            overlay.insert({"d"})

    def test_set_views_materialize_per_slot(self, snap_path):
        loaded = load_snapshot(snap_path)
        collection = loaded.collection
        _ = collection[0]
        assert collection._sets[0] is not None
        assert collection._sets[1] is None


class TestReadOnlyMappings:
    def test_section_arrays_refuse_writes(self, snap_path):
        loaded = load_snapshot(snap_path)
        for field in (
            "set_lengths",
            "set_members",
            "posting_lengths",
            "posting_members",
        ):
            arr = getattr(loaded, field)
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_embedding_matrix_refuses_writes(self, snap_path):
        loaded = load_snapshot(snap_path)
        matrix = loaded.token_index.store.matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_maps_outlive_the_loader_handle(self, snap_path):
        members = load_snapshot(snap_path).posting_members
        gc.collect()
        # The mapping is kept alive through the view's .base chain even
        # after the LoadedSnapshot itself is gone.
        assert int(np.asarray(members).sum()) >= 0


class TestCorruption:
    def test_flipped_payload_byte_detected_on_mapped_path(
        self, snap_path, tmp_path
    ):
        data = bytearray(snap_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)
        with pytest.raises(SnapshotError):
            verify_snapshot_checksum(bad)

    def test_verify_false_skips_the_hash(self, snap_path, tmp_path):
        data = bytearray(snap_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        # Trusting callers (cluster workers after the coordinator's
        # verify-once pass) map without re-hashing; structural checks
        # still run, but a payload bit-flip slips through by design.
        try:
            load_snapshot(bad, verify=False)
        except SnapshotError:
            pass  # the flip may land in a structural field — also fine

    def test_truncated_file_detected_without_verify(
        self, snap_path, tmp_path
    ):
        data = snap_path.read_bytes()
        cut = tmp_path / "cut.snap"
        cut.write_bytes(data[: len(data) - 32])
        with pytest.raises(SnapshotError):
            load_snapshot(cut, verify=False)


def _mutate(overlay, rng, pool):
    ops = []
    for step in range(60):
        roll = int(rng.integers(0, 10))
        if roll < 5:
            tokens = {
                pool[int(j)]
                for j in rng.choice(VOCAB, size=int(rng.integers(3, 8)))
            }
            ops.append(("insert", f"new-{step:03d}", tokens))
        elif roll < 8:
            ops.append(("delete", int(rng.integers(0, NUM_SETS))))
        else:
            tokens = {
                pool[int(j)]
                for j in rng.choice(VOCAB, size=int(rng.integers(3, 8)))
            }
            ops.append(("replace", int(rng.integers(0, NUM_SETS)), tokens))
    for op in ops:
        try:
            if op[0] == "insert":
                overlay.insert(op[2], name=op[1])
            elif op[0] == "delete":
                overlay.delete(op[1])
            else:
                overlay.replace(op[1], op[2])
        except Exception:
            # Deleting an already-deleted id etc. — must fail the same
            # way on both overlays, so record the failure as a no-op.
            pass
    return overlay


class TestLazyOverlayEquivalence:
    """MutableSetCollection.from_snapshot (copy-on-write over mapped CSR)
    vs the eager overlay built from fully materialized postings."""

    def _pair(self, snap_path):
        lazy = load_snapshot(snap_path).mutable()
        heap = load_snapshot(snap_path, mmap=False)
        eager = MutableSetCollection(heap.collection, postings=heap.postings)
        return lazy, eager

    def _assert_same(self, lazy, eager):
        assert list(lazy.ids()) == list(eager.ids())
        assert lazy.version == eager.version
        for set_id in eager.ids():
            assert lazy[set_id] == eager[set_id]
            assert lazy.name_of(set_id) == eager.name_of(set_id)
        assert lazy.stats() == eager.stats()
        assert set(lazy.posting_tokens()) == set(eager.posting_tokens())
        for token in set(eager.posting_tokens()):
            a = lazy.posting_of(token)
            b = eager.posting_of(token)
            a = a if a is None else list(np.asarray(a).tolist())
            b = b if b is None else list(np.asarray(b).tolist())
            assert a == b

    def test_fresh_overlays_agree(self, snap_path):
        lazy, eager = self._pair(snap_path)
        self._assert_same(lazy, eager)

    def test_mutated_overlays_agree(self, corpus, snap_path):
        _, pool = corpus
        lazy, eager = self._pair(snap_path)
        _mutate(lazy, make_rng(SEED + 2), pool)
        _mutate(eager, make_rng(SEED + 2), pool)
        self._assert_same(lazy, eager)

    def test_vacuum_and_compacted_agree(self, corpus, snap_path):
        _, pool = corpus
        lazy, eager = self._pair(snap_path)
        _mutate(lazy, make_rng(SEED + 3), pool)
        _mutate(eager, make_rng(SEED + 3), pool)
        lazy.vacuum()
        eager.vacuum()
        self._assert_same(lazy, eager)
        a = lazy.compacted()
        b = eager.compacted()
        assert list(a.ids()) == list(b.ids())
        for set_id in a.ids():
            assert a[set_id] == b[set_id]
            assert a.name_of(set_id) == b.name_of(set_id)

    def test_delta_index_columnar_matches_python_build(self, snap_path):
        lazy, _ = self._pair(snap_path)
        tokens = sorted(lazy.vocabulary)
        table = TokenTable(tokens)
        full = lazy.delta_index()
        reference = csr_from_index(full, table)
        got = full.columnar(table)
        assert np.array_equal(
            np.asarray(got.offsets), np.asarray(reference.offsets)
        )
        assert np.array_equal(np.asarray(got.sets), np.asarray(reference.sets))
        members = list(range(0, NUM_SETS, 2))
        part = lazy.delta_index(members)
        part_ref = csr_from_index(part, table)
        part_got = part.columnar(table)
        assert np.array_equal(
            np.asarray(part_got.offsets), np.asarray(part_ref.offsets)
        )
        assert np.array_equal(
            np.asarray(part_got.sets), np.asarray(part_ref.sets)
        )

    def test_columnar_falls_back_after_mutation(self, corpus, snap_path):
        _, pool = corpus
        lazy, _ = self._pair(snap_path)
        _mutate(lazy, make_rng(SEED + 4), pool)
        tokens = sorted(lazy.vocabulary)
        table = TokenTable(tokens)
        index = lazy.delta_index()
        reference = csr_from_index(index, table)
        got = index.columnar(table)
        assert np.array_equal(
            np.asarray(got.offsets), np.asarray(reference.offsets)
        )
        assert np.array_equal(np.asarray(got.sets), np.asarray(reference.sets))


def _vm_rss_kb():
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


@pytest.mark.skipif(
    _vm_rss_kb() is None, reason="needs /proc/self/status (Linux)"
)
def test_second_loader_shares_the_page_cache(tmp_path):
    """A second loader of the same snapshot must not re-heap the posting
    sections: it maps the same file, so its RSS delta stays well below
    the posting-section size."""
    rng = make_rng(97)
    vocab = 4000
    pool = [f"tok{i:05d}" for i in range(vocab)]
    sets = []
    for _ in range(1000):
        members = rng.choice(vocab, size=1000, replace=False)
        sets.append({pool[j] for j in members})
    collection = SetCollection(sets)
    path = tmp_path / "big.snap"
    save_snapshot(path, collection)
    del sets, collection
    gc.collect()

    first = load_snapshot(path)
    section_bytes = first.posting_members.nbytes + first.set_members.nbytes
    assert section_bytes >= 4_000_000  # ~1M u4 memberships per section
    gc.collect()
    before = _vm_rss_kb()
    second = load_snapshot(path)
    gc.collect()
    after = _vm_rss_kb()
    delta_bytes = max(0, (after - before)) * 1024
    # The heap loader would copy both CSR sections (plus the decoded
    # postings dict); the mapped loader only re-decodes tokens/names.
    assert delta_bytes < section_bytes / 4, (
        f"second loader added {delta_bytes}B against "
        f"{section_bytes}B of mapped sections"
    )
    assert np.array_equal(
        np.asarray(first.posting_members), np.asarray(second.posting_members)
    )


class TestClusterVerifyOnce:
    def test_specs_ship_verify_false(self, snap_path):
        import threading

        from repro.cluster.coordinator import ClusterPool

        # Exercise the spec factory alone — initial spawn, inline
        # revival, and the background restarter all build specs through
        # this one method, so verify-once is proven for every path.
        pool = ClusterPool.__new__(ClusterPool)
        pool._lock = threading.Lock()
        pool._config = None
        pool._fault_injector = None
        pool._num_workers = 2
        pool._shards = 1
        pool._shard_seed = 0
        pool._alpha = 0.7
        pool._snapshot_path = str(snap_path)
        pool._base_sets = None
        pool._base_names = None
        pool._substrate = SUBSTRATE
        pool._history = []
        spec = pool._make_spec(0)
        assert spec.verify_snapshot is False
        assert spec.snapshot_path == str(snap_path)

    def test_worker_bootstrap_honors_verify_flag(self, snap_path, tmp_path):
        from repro.cluster import worker
        from repro.cluster.messages import WorkerSpec

        def spec_for(path, verify):
            return WorkerSpec(
                worker_id=0,
                num_workers=1,
                shards=1,
                shard_seed=0,
                alpha=0.7,
                config=None,
                snapshot_path=str(path),
                sets=None,
                names=None,
                substrate=None,
                base_version=0,
                history=(),
                verify_snapshot=verify,
            )

        state = worker.bootstrap(spec_for(snap_path, False))
        assert len(state.pool.collection) == NUM_SETS
        data = bytearray(snap_path.read_bytes())
        data[len(data) - 8] ^= 0xFF  # flip inside the vectors payload
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(SnapshotError):
            worker.bootstrap(spec_for(bad, True))

    def test_pool_rejects_corrupted_snapshot_up_front(
        self, snap_path, tmp_path
    ):
        from repro.cluster.coordinator import ClusterPool

        data = bytearray(snap_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        loaded = load_snapshot(snap_path)
        with pytest.raises(SnapshotError):
            ClusterPool(
                loaded.mutable(),
                loaded.token_index,
                loaded.sim,
                alpha=0.7,
                workers=1,
                snapshot_path=str(bad),
                substrate=SUBSTRATE,
            )
