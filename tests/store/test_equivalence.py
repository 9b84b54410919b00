"""The store's exactness contract.

After a randomized sequence of >= 100 inserts/deletes/replaces applied
through the WAL + mutable overlay, search through the incremental
structures (delta postings, tombstones, extended vector store) must be
*bitwise identical* — ids, scores, theta_k — to an engine rebuilt from
scratch on the final collection state. Checked at two alphas, through a
direct engine and through sharded ``EnginePool`` serving.
"""

import pytest

from repro.core.koios import KoiosSearchEngine
from repro.embedding import VectorStore
from repro.index import ExactCosineIndex, InvertedIndex
from repro.service import EnginePool
from repro.store import MutableSetCollection, WriteAheadLog
from repro.store.mutation import DELETE, INSERT, Mutation
from repro.utils.rng import make_rng

OPS = 120
ALPHAS = (0.7, 0.9)
K = 10
SEED = 29


def random_ops(rng, base_names, vocab_pool, count):
    """A feasible op sequence: deletes/replaces only touch live names."""
    live = list(base_names)
    ops = []
    fresh = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5 or len(live) <= 5:
            name = f"ins_{fresh}"
            fresh += 1
            size = int(rng.integers(1, 8))
            tokens = tuple(
                str(t)
                for t in rng.choice(vocab_pool, size=size, replace=False)
            )
            ops.append(("insert", name, tokens))
            live.append(name)
        elif roll < 0.8:
            name = str(live.pop(int(rng.integers(len(live)))))
            ops.append(("delete", name, None))
        else:
            name = str(live[int(rng.integers(len(live)))])
            size = int(rng.integers(1, 8))
            tokens = tuple(
                str(t)
                for t in rng.choice(vocab_pool, size=size, replace=False)
            )
            ops.append(("replace", name, tokens))
    return ops


@pytest.fixture(scope="module")
def mutated(tmp_path_factory, request):
    """Overlay + substrate after OPS randomized WAL-applied mutations."""
    stack = request.getfixturevalue("tiny_opendata")
    rng = make_rng(SEED)
    collection = stack.collection
    base_vocab = sorted(collection.vocabulary)
    # Half existing vocabulary, half brand-new tokens: mutations must
    # both reuse and grow the embedding space.
    vocab_pool = base_vocab + [f"fresh_token_{i}" for i in range(120)]

    wal = WriteAheadLog(tmp_path_factory.mktemp("wal") / "ops.wal")
    names = [collection.name_of(i) for i in collection.ids()]
    ops = random_ops(rng, names, vocab_pool, OPS)
    assert len(ops) >= 100
    assert any(op == "delete" for op, _, _ in ops)
    assert any(op == "insert" for op, _, _ in ops)
    for op, name, tokens in ops:
        wal.append(op, name, tokens)

    overlay = MutableSetCollection(collection)
    # Incremental substrate: the *live* store grows with the vocabulary
    # (what EnginePool.insert does per mutation; batched here).
    provider = stack.dataset.provider
    store = VectorStore(provider, collection.vocabulary)
    index = ExactCosineIndex(store, provider)
    assert wal.replay_into(overlay) == OPS
    store.extend(overlay.vocabulary)

    # From-scratch reference substrate over the final vocabulary only.
    scratch_store = VectorStore(provider, overlay.vocabulary)
    scratch_index = ExactCosineIndex(scratch_store, provider)

    queries = []
    live = overlay.ids()
    for set_id in (live[0], live[len(live) // 2], live[-1]):
        queries.append(frozenset(overlay[set_id]))
    picks = rng.choice(vocab_pool, size=6, replace=False)
    queries.append(frozenset(str(t) for t in picks))
    queries.append(frozenset({"fresh_token_1", "fresh_token_2"}))
    return stack, overlay, index, scratch_index, queries


def assert_bitwise_equal(got, expected, context):
    assert got.ids() == expected.ids(), context
    assert got.scores() == expected.scores(), context
    assert got.theta_k == expected.theta_k, context


@pytest.mark.parametrize("alpha", ALPHAS)
def test_incremental_engine_matches_scratch_rebuild(mutated, alpha):
    stack, overlay, index, scratch_index, queries = mutated
    incremental = KoiosSearchEngine(
        overlay,
        index,
        stack.sim,
        alpha=alpha,
        inverted_factory=overlay.delta_index,
    )
    scratch = KoiosSearchEngine(
        overlay, scratch_index, stack.sim, alpha=alpha
    )
    for query in queries:
        assert_bitwise_equal(
            incremental.search(query, K),
            scratch.search(query, K),
            (alpha, sorted(query)[:3]),
        )


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("shards", [1, 3])
def test_sharded_pool_serving_matches_scratch_rebuild(
    mutated, alpha, shards
):
    """Incremental vs from-scratch under the *same* serving topology.

    Shard count changes which sets win ties at the k-th score (the
    documented degree of freedom sharded serving shares with §VI
    partitioning), so the from-scratch reference is a pool with an
    identical shard layout whose indexes are full rebuilds.
    """
    stack, overlay, index, scratch_index, queries = mutated
    pool = EnginePool(
        overlay, index, stack.sim, alpha=alpha, shards=shards
    )
    scratch_pool = EnginePool(
        overlay,
        scratch_index,
        stack.sim,
        alpha=alpha,
        shards=shards,
        # Force full InvertedIndex rebuilds (the overlay's delta factory
        # would otherwise be auto-adopted).
        inverted_factory=lambda ids: InvertedIndex(overlay, ids),
    )
    for query in queries:
        assert_bitwise_equal(
            pool.search(query, K),
            scratch_pool.search(query, K),
            (alpha, shards, sorted(query)[:3]),
        )


def test_hot_swap_tracks_further_mutations(mutated):
    """EnginePool serves the post-mutation state immediately after each
    version bump, matching a from-scratch engine at every step."""
    stack, overlay, index, scratch_index, queries = mutated
    pool = EnginePool(overlay, index, stack.sim, alpha=0.7)
    query = queries[0]
    before = pool.search(query, K)

    set_id, _ = pool.mutate(Mutation(INSERT, "hot_swap_probe", query))
    after = pool.search(query, K)
    # The probe duplicates queries[0]'s source set: same top score, the
    # original wins the tie by lower id.
    assert set_id in after.ids()
    assert after.scores()[after.ids().index(set_id)] == after.scores()[0]
    scratch = KoiosSearchEngine(
        overlay,
        ExactCosineIndex(
            VectorStore(stack.dataset.provider, overlay.vocabulary),
            stack.dataset.provider,
        ),
        stack.sim,
        alpha=0.7,
    )
    assert_bitwise_equal(after, scratch.search(query, K), "post-insert")

    pool.mutate(Mutation(DELETE, "hot_swap_probe"))
    again = pool.search(query, K)
    assert_bitwise_equal(again, before, "delete restores prior results")
