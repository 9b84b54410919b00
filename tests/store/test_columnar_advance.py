"""Columnar contexts advanced across mutations, against the oracle.

A shard's columnar context — the shared ``TokenTable`` plus its
``ColumnarPartition`` (CSR ``offsets``/``sets`` and per-set ``sizes``) —
is carried across mutations by the overlay's delta instead of being
rebuilt. The contract: after any sequence of inserts, deletes and
replaces, advanced in any grouping, every array equals what
``csr_from_index`` builds from scratch over the same view, and the
table *object* is reused exactly when the vocabulary did not change.
The last class checks the same thing from the outside: a pool search
after a mutation does no per-token and no per-set Python work.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import FilterConfig
from repro.core.fastpath import ColumnarPartition
from repro.datasets import SetCollection
from repro.embedding import HashingEmbeddingProvider, VectorStore
from repro.index.interning import TokenTable, csr_from_index, token_table_for
from repro.service import EnginePool
from repro.store import MutableSetCollection, load_snapshot, save_snapshot
from repro.store.mutable import DeltaInvertedIndex

SUBSTRATE = {
    "kind": "hashing-cosine",
    "dim": 16,
    "n_min": 3,
    "n_max": 5,
    "salt": "hashing-embedding",
    "batch_size": 100,
}

#: "d", "f" and "g" each live in exactly one base set, so deleting that
#: set kills a token; "h" and the "new*" tokens are not in the base
#: vocabulary at all. Under seed 0 two shards own slots [3, 4, 5, 6, 7, 8]
#: and [0, 1, 2, 9, ...], three own [3, 4, 5, 6, 7, 8], [1, 2, 10] and
#: [0, 9]: a few deletes empty a shard and the fourth insert refills it.
BASE = [
    {"a", "b"}, {"b", "c"}, {"c", "d", "e"}, {"e"}, {"a", "f"}, {"g"},
]
TOKENS = ["a", "b", "c", "d", "e", "f", "g", "h", "new0", "new1", "new2"]


@pytest.fixture(scope="module")
def snap_path(tmp_path_factory):
    collection = SetCollection(BASE)
    provider = HashingEmbeddingProvider(dim=SUBSTRATE["dim"])
    store = VectorStore(provider, collection.vocabulary)
    path = tmp_path_factory.mktemp("advance") / "base.snap"
    save_snapshot(path, collection, store=store, substrate=SUBSTRATE)
    return path


def make_overlay(kind, snap_path):
    if kind == "lazy":
        return load_snapshot(snap_path).mutable()
    return MutableSetCollection(SetCollection(BASE))


token_sets = st.frozensets(st.sampled_from(TOKENS), min_size=1, max_size=4)
# (kind, pick, tokens, advance afterwards?) — ``pick`` selects the live
# set a delete/replace hits, modulo the live count at that moment.
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(0, 63),
        token_sets,
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class Shard:
    """One view with the context its owner carries forward."""

    def __init__(self, overlay, num_shards, position):
        self.overlay = overlay
        self.num_shards = num_shards
        self.position = position
        if num_shards == 1:
            self.view = overlay.delta_index()
        else:
            self.view = overlay.delta_index(
                overlay.partition(num_shards)[position]
            )
        self.slots = overlay.num_slots
        self.table = token_table_for(overlay)
        self.partition = ColumnarPartition.build(self.view, self.table)

    def advance(self):
        overlay = self.overlay
        fresh = np.arange(self.slots, overlay.num_slots)
        if self.num_shards > 1:
            owner = overlay.slot_assignment(self.num_shards)[self.slots:]
            fresh = fresh[owner == self.position]
        dead, born = self.view.advance(fresh)
        table = token_table_for(overlay)
        self.partition = self.partition.advanced(
            self.table, table, dead, born
        )
        self.table = table
        self.slots = overlay.num_slots

    def check(self):
        overlay = self.overlay
        if self.num_shards == 1:
            scratch = DeltaInvertedIndex(overlay)
        else:
            scratch = DeltaInvertedIndex(
                overlay, overlay.partition(self.num_shards)[self.position]
            )
        table = TokenTable.from_vocabulary(overlay.vocabulary)
        assert self.table.tokens == table.tokens
        expected = ColumnarPartition(csr_from_index(scratch, table))
        got = self.partition
        assert got.csr.offsets.dtype == expected.csr.offsets.dtype
        assert got.csr.sets.dtype == expected.csr.sets.dtype
        assert np.array_equal(got.csr.offsets, expected.csr.offsets)
        assert np.array_equal(got.csr.sets, expected.csr.sets)
        assert np.array_equal(got.sizes, expected.sizes)
        assert got.n_ids == expected.n_ids
        assert self.view.num_sets == int(np.count_nonzero(expected.sizes))


def apply(overlay, kind, pick, tokens):
    live = overlay.ids()
    if kind == "insert":
        overlay.insert(tokens)
    elif len(live) > 1:
        target = live[pick % len(live)]
        if kind == "delete":
            overlay.delete(target)
        else:
            overlay.replace(target, tokens)


@settings(max_examples=250, deadline=None)
@given(
    kind=st.sampled_from(["lazy", "eager"]),
    num_shards=st.sampled_from([1, 2, 3]),
    sequence=ops,
)
# a token dies ("g" lives only in set 5) and is resurrected
@example(
    kind="lazy",
    num_shards=2,
    sequence=[
        ("delete", 5, frozenset({"a"}), True),
        ("insert", 0, frozenset({"g", "a"}), True),
    ],
)
# the same between two advances: the vocabulary ends where it started
@example(
    kind="eager",
    num_shards=1,
    sequence=[
        ("delete", 5, frozenset({"a"}), False),
        ("insert", 0, frozenset({"g"}), True),
    ],
)
# insert-then-delete between two advances, brand-new tokens included
@example(
    kind="lazy",
    num_shards=3,
    sequence=[
        ("insert", 0, frozenset({"new0", "b"}), False),
        ("delete", 6, frozenset({"a"}), True),
        ("insert", 0, frozenset({"new1"}), True),
    ],
)
# a shard goes empty (shard 2 of 3 owns only slot 0) and fills again
@example(
    kind="lazy",
    num_shards=3,
    sequence=[("delete", 0, frozenset({"a"}), True)]
    + [("insert", 0, frozenset({"a", "h"}), True)] * 4,
)
def test_advanced_context_equals_scratch_build(
    snap_path, kind, num_shards, sequence
):
    overlay = make_overlay(kind, snap_path)
    shards = [
        Shard(overlay, num_shards, position)
        for position in range(num_shards)
    ]
    vocabulary = overlay.vocabulary
    for op, pick, tokens, advance in sequence:
        apply(overlay, op, pick, tokens)
        if not advance:
            continue
        tables = [shard.table for shard in shards]
        for shard in shards:
            shard.advance()
            shard.check()
        unchanged = overlay.vocabulary == vocabulary
        for shard, table in zip(shards, tables):
            assert (shard.table is table) == unchanged
        assert len({id(shard.table) for shard in shards}) == 1
        vocabulary = overlay.vocabulary


def test_example_shard_really_empties():
    """The hand-written example above does what its comment says."""
    overlay = MutableSetCollection(SetCollection(BASE))
    assert overlay.partition(3)[2] == [0]
    shard = Shard(overlay, 3, 2)
    overlay.delete(0)
    shard.advance()
    assert shard.view.num_sets == 0
    assert shard.partition.n_ids == 0
    assert shard.partition.csr.total_postings == 0
    while shard.view.num_sets == 0:
        overlay.insert({"a", "h"})
        shard.advance()
    shard.check()


def test_first_build_of_a_mutated_snapshot_overlay_is_array_work(
    snap_path, monkeypatch
):
    """A WAL-replaying cold start builds its first context at version
    > 0: still from the mapped arrays plus the delta, never per token."""
    overlay = load_snapshot(snap_path).mutable()
    overlay.delete(2)
    overlay.insert({"new0", "a"})
    overlay.replace(0, {"b", "h"})
    table = token_table_for(overlay)
    expected = [
        csr_from_index(DeltaInvertedIndex(overlay, ids), table)
        for ids in overlay.partition(2)
    ]

    def forbidden(self, token):
        raise AssertionError("per-token posting read on the array path")

    monkeypatch.setattr(DeltaInvertedIndex, "sets_containing", forbidden)
    for ids, want in zip(overlay.partition(2), expected):
        got = overlay.delta_index(ids).columnar(table)
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.sets, want.sets)


class TestPoolAdvances:
    """``EnginePool.refresh()`` advances engines; it does not build."""

    @pytest.fixture()
    def stack(self, snap_path):
        loaded = load_snapshot(snap_path)
        overlay = loaded.mutable()
        pool = EnginePool(
            overlay,
            loaded.token_index,
            loaded.sim,
            alpha=0.7,
            shards=2,
            config=FilterConfig.koios(),
        )
        yield loaded, overlay, pool
        pool.shutdown()

    @staticmethod
    def contexts(pool):
        out = []
        for engine in pool._engines:
            table, partition = engine._columnar_ctx
            out.append(
                (
                    table.tokens,
                    partition.csr.offsets.tolist(),
                    partition.csr.sets.tolist(),
                    partition.sizes.tolist(),
                    engine.num_sets,
                )
            )
        return out

    def test_advanced_pool_equals_fresh_pool(self, stack):
        loaded, overlay, pool = stack
        steps = [
            lambda: pool.insert({"a", "new0"}, name="x"),
            lambda: pool.replace("x", {"b", "h"}),
            lambda: pool.delete("x"),
            # shard 1 of 2 holds slots 0, 1, 2: empty it, refill it
            lambda: [pool.delete(set_id) for set_id in (0, 1, 2)],
            lambda: [pool.insert({"a", "h"}) for _ in range(4)],
        ]
        for step in steps:
            step()
            pool.refresh()
            fresh = EnginePool(
                overlay,
                loaded.token_index,
                loaded.sim,
                alpha=0.7,
                shards=2,
                config=FilterConfig.koios(),
            )
            assert self.contexts(pool) == self.contexts(fresh)
            query = frozenset({"a", "b", "h"})
            got, want = pool.search(query, 3), fresh.search(query, 3)
            assert got.ids() == want.ids()
            assert got.scores() == want.scores()

    def test_search_after_a_mutation_does_no_per_token_work(
        self, stack, monkeypatch
    ):
        """Work-proportionality guard that reads no clock: between a
        mutation's ack and the next answer nothing walks the postings
        token by token and nothing re-partitions the set ids."""
        _, overlay, pool = stack
        calls = {"sets_containing": 0, "partition": 0}

        def count(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            DeltaInvertedIndex,
            "sets_containing",
            count("sets_containing", DeltaInvertedIndex.sets_containing),
        )
        monkeypatch.setattr(
            SetCollection,
            "partition",
            count("partition", SetCollection.partition),
        )
        query = frozenset({"a", "b", "c"})
        pool.search(query, 3)
        mutations = [
            lambda: pool.insert({"a", "c"}, name="probe"),
            lambda: pool.replace("probe", {"b", "c", "e"}),
            lambda: pool.delete("probe"),
        ]
        for mutate in mutations:
            mutate()
            result = pool.search(query, 3)
            assert result.entries
            assert calls == {"sets_containing": 0, "partition": 0}
        assert pool.stats_snapshot()["hot_swaps"] == len(mutations)

    def test_many_mutations_cost_one_advance(self, stack, monkeypatch):
        from repro.core.koios import KoiosSearchEngine

        _, _, pool = stack
        advances = []
        original = KoiosSearchEngine.advance

        def counting(self, new_ids):
            advances.append(len(new_ids))
            return original(self, new_ids)

        monkeypatch.setattr(KoiosSearchEngine, "advance", counting)
        for i in range(5):
            pool.insert({"a", f"many{i}"})
        pool.search(frozenset({"a"}), 3)
        assert len(advances) == pool.num_shards
        assert sum(advances) == 5
        assert pool.stats_snapshot()["hot_swaps"] == 1

    def test_hot_swap_is_visible_in_spans_and_stats(self, stack, tmp_path):
        import json

        from repro.obs import configure, disable

        _, overlay, pool = stack
        assert pool.stats_snapshot()["hot_swaps"] == 0
        sink = tmp_path / "trace.jsonl"
        configure(str(sink))
        try:
            pool.insert({"a", "b"}, name="kept-vocabulary")
            pool.refresh()
            pool.refresh()  # not stale: no second swap
            pool.replace("kept-vocabulary", {"a", "brand-new"})
            pool.delete(2)
            pool.refresh()
        finally:
            disable()
        spans = [
            json.loads(line)
            for line in sink.read_text(encoding="utf-8").splitlines()
        ]
        assert [span["name"] for span in spans] == ["pool.hot_swap"] * 2
        assert spans[0]["tags"] == {
            "from_version": 0,
            "to_version": 1,
            "inserted": 1,
            "tombstoned": 0,
            "table_reused": True,
        }
        assert spans[1]["tags"] == {
            "from_version": 1,
            "to_version": overlay.version,
            "inserted": 1,
            "tombstoned": 2,
            "table_reused": False,
        }
        stats = pool.stats_snapshot()
        assert stats["hot_swaps"] == 2
        assert stats["last_hot_swap_ms"] > 0.0
