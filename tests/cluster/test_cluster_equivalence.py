"""The cluster's exactness contract.

Scatter-gather over worker *processes* must be bitwise-identical —
ids, scores, theta_k — to single-process ``EnginePool`` serving with
the same shard layout, across a long randomized interleaving of
queries and mutations at two alphas, and *through* a forced worker
crash (the restarted worker re-bootstraps from base state + shipped
WAL history and must answer as if nothing happened).
"""

import pytest

from repro.cluster import ClusterPool
from repro.cluster.worker import substrate_from_descriptor
from repro.datasets import TINY_PROFILES, generate_dataset
from repro.service import EnginePool
from repro.store import MutableSetCollection
from repro.store.mutation import Mutation
from repro.store.snapshot import save_snapshot
from repro.utils.rng import make_rng

WORKERS = 2
OPS = 110
K = 10
ALPHAS = (0.7, 0.9)
SEED = 31
SUBSTRATE = {
    "kind": "hashing-cosine",
    "dim": 32,
    "n_min": 3,
    "n_max": 5,
    "salt": "hashing-embedding",
    "batch_size": 100,
}


@pytest.fixture(scope="module")
def base_collection():
    return generate_dataset(TINY_PROFILES["opendata"], seed=11).collection


def make_ops(rng, base, count):
    """A feasible mixed op sequence: ~half queries (alternating the two
    alphas), ~half mutations touching only live names."""
    live = [base.name_of(i) for i in base.ids()]
    vocab_pool = sorted(base.vocabulary) + [
        f"fresh_token_{i}" for i in range(80)
    ]
    queries = [frozenset(base[i]) for i in base.ids()]
    ops = []
    fresh = 0
    alpha_flip = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5:
            alpha = ALPHAS[alpha_flip % len(ALPHAS)]
            alpha_flip += 1
            if rng.random() < 0.3:
                size = int(rng.integers(2, 7))
                query = frozenset(
                    str(t)
                    for t in rng.choice(vocab_pool, size=size, replace=False)
                )
            else:
                query = queries[int(rng.integers(len(queries)))]
            ops.append(("query", query, alpha))
        elif roll < 0.75 or len(live) <= 5:
            name = f"ins_{fresh}"
            fresh += 1
            size = int(rng.integers(1, 8))
            tokens = tuple(
                str(t)
                for t in rng.choice(vocab_pool, size=size, replace=False)
            )
            ops.append(("insert", name, tokens))
            live.append(name)
        elif roll < 0.9:
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


def assert_bitwise_equal(got, expected, context):
    assert got.ids() == expected.ids(), context
    assert got.scores() == expected.scores(), context
    assert got.theta_k == expected.theta_k, context


def run_interleaving(pool, cluster, ops, *, crash_before=()):
    """Drive both systems through one op sequence, comparing every
    query bitwise; kill a live worker process right before the ops in
    ``crash_before`` (index positions)."""
    compared = 0
    for position, op in enumerate(ops):
        if position in crash_before:
            victim = cluster._handles[position % WORKERS]
            victim.process.kill()
            victim.process.join()
        kind = op[0]
        if kind == "query":
            _, query, alpha = op
            assert_bitwise_equal(
                cluster.search(query, K, alpha=alpha),
                pool.search(query, K, alpha=alpha),
                (position, alpha, sorted(query)[:3]),
            )
            compared += 1
        else:
            mutation = Mutation(*op)
            assert cluster.mutate(mutation) == pool.mutate(mutation), (
                position,
                mutation.ref,
            )
    return compared


def test_cluster_matches_single_process_pool(base_collection):
    """>= 100 mixed ops, two alphas, two forced crashes (one recovered
    on a query scatter, one on a mutation broadcast)."""
    rng = make_rng(SEED)
    ops = make_ops(rng, base_collection, OPS)
    assert len(ops) >= 100
    assert {op[0] for op in ops} == {"query", "insert", "delete", "replace"}

    # Crash once right before a query and once right before a mutation:
    # both recovery paths (scatter retry, broadcast re-bootstrap) must
    # preserve exactness.
    first_query = next(
        i for i, op in enumerate(ops) if i > 10 and op[0] == "query"
    )
    first_mutation = next(
        i
        for i, op in enumerate(ops)
        if i > OPS // 2 and op[0] != "query"
    )

    index, sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    cluster_index, cluster_sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    pool = EnginePool(
        MutableSetCollection(base_collection),
        index,
        sim,
        alpha=0.8,
        shards=WORKERS,
    )
    with ClusterPool(
        MutableSetCollection(base_collection),
        cluster_index,
        cluster_sim,
        alpha=0.8,
        workers=WORKERS,
        substrate=SUBSTRATE,
    ) as cluster:
        compared = run_interleaving(
            pool,
            cluster,
            ops,
            crash_before={first_query, first_mutation},
        )
        assert compared >= 30
        assert cluster.total_restarts >= 2
    pool.shutdown()


def test_snapshot_bootstrap_matches_in_memory_shipping(
    base_collection, tmp_path
):
    """Workers bootstrapped by loading the shared snapshot serve the
    same bytes as workers bootstrapped from pickled in-memory state."""
    index, sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    snap_path = tmp_path / "base.snap"
    save_snapshot(
        snap_path, base_collection, store=index.store, substrate=SUBSTRATE
    )
    rng = make_rng(SEED + 1)
    ops = make_ops(rng, base_collection, 24)

    pool_index, pool_sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    pool = EnginePool(
        MutableSetCollection(base_collection),
        pool_index,
        pool_sim,
        alpha=0.8,
        shards=WORKERS,
    )
    with ClusterPool(
        MutableSetCollection(base_collection),
        index,
        sim,
        alpha=0.8,
        workers=WORKERS,
        snapshot_path=str(snap_path),
    ) as cluster:
        assert cluster._snapshot_path == str(snap_path)
        run_interleaving(pool, cluster, ops)
        # A crash after mutations forces a snapshot-load + history
        # replay re-bootstrap; results must still match.
        cluster._handles[0].process.kill()
        cluster._handles[0].process.join()
        query = frozenset(base_collection[0])
        assert_bitwise_equal(
            cluster.search(query, K),
            pool.search(query, K),
            "post-crash snapshot re-bootstrap",
        )
        assert cluster.total_restarts >= 1
    pool.shutdown()
