"""Engine equivalence through the cluster backend.

A worker fleet must serve bytes identical to a single-process engine
pool with the same shard layout, through queries at two alphas
interleaved with live mutations — scatter-gather, stream shipping and
the mutation version barrier do not disturb exactness — and both must
score what brute force scores over the mutated collection.

The cluster leg runs fully *traced* (spans from the scatter through
every worker's engine phases) against the untraced pool: tracing is
observation-only by contract, so results must stay bitwise identical
with it on.
"""

import pytest

from repro import obs
from repro.baselines.exhaustive import BruteForceSearcher
from repro.cluster import ClusterPool
from repro.cluster.worker import substrate_from_descriptor
from repro.datasets import TINY_PROFILES, generate_dataset
from repro.service import EnginePool
from repro.store import MutableSetCollection
from repro.utils.rng import make_rng
from tests.conftest import assert_same_scores

WORKERS = 2
K = 10
ALPHAS = (0.7, 0.9)
SEED = 47
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


def test_columnar_cluster_matches_reference_pool(
    base_collection, tmp_path
):
    rng = make_rng(SEED)
    vocab_pool = sorted(base_collection.vocabulary)
    queries = [frozenset(base_collection[i]) for i in base_collection.ids()]

    index, sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    cluster_index, cluster_sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    reference = EnginePool(
        MutableSetCollection(base_collection),
        index,
        sim,
        alpha=0.8,
        shards=WORKERS,
    )
    sink_path = str(tmp_path / "trace.jsonl")
    # Configure BEFORE the cluster spawns: worker specs capture the
    # trace config, so worker processes append to the same sink.
    tracer = obs.configure(sink_path)
    try:
        with ClusterPool(
            MutableSetCollection(base_collection),
            cluster_index,
            cluster_sim,
            alpha=0.8,
            workers=WORKERS,
            substrate=SUBSTRATE,
        ) as cluster:
            compared = 0
            for step in range(30):
                if step % 5 == 4:
                    tokens = tuple(
                        str(t)
                        for t in rng.choice(
                            vocab_pool, size=4, replace=False
                        )
                    ) + (f"cluster_fresh_{step}",)
                    name = f"mut_{step}"
                    assert cluster.insert(
                        tokens, name=name
                    ) == reference.insert(tokens, name=name)
                    continue
                alpha = ALPHAS[step % len(ALPHAS)]
                query = queries[int(rng.integers(len(queries)))]
                # The cluster leg runs inside a live trace; the pool
                # runs untraced. Equal bytes below IS the tracing-on/off
                # equivalence contract.
                with tracer.span("request", tags={"step": step}):
                    got = cluster.search(query, K, alpha=alpha)
                expected = reference.search(query, K, alpha=alpha)
                assert got.ids() == expected.ids(), (step, alpha)
                assert got.scores() == expected.scores(), (step, alpha)
                assert got.theta_k == expected.theta_k, (step, alpha)
                truth = BruteForceSearcher(
                    reference.collection, sim, alpha=alpha
                ).search(query, K)
                assert_same_scores(got.scores(), truth.scores())
                compared += 1
            assert compared >= 20
    finally:
        obs.disable()
    reference.shutdown()
    # Tracing was actually live: spans crossed the process boundary.
    from repro.obs.inspect import read_spans

    names = {span["name"] for span in read_spans(sink_path)}
    assert {"request", "cluster.scatter", "worker.search"} <= names
