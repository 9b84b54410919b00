"""Coordinator behaviour: version barrier, health/restart, metrics
rollup, bootstrap validation, and serving through the scheduler."""

import pytest

from repro.cluster import ClusterPool, ClusterMetrics
from repro.cluster.messages import check_version
from repro.cluster.worker import substrate_from_descriptor
from repro.datasets import SetCollection, TINY_PROFILES, generate_dataset
from repro.errors import ClusterError, InvalidParameterError
from repro.service import (
    EnginePool,
    QueryScheduler,
    ResultCache,
    SearchRequest,
)
from repro.store import MutableSetCollection
from repro.store.mutation import DELETE, INSERT, Mutation

K = 5
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
    return generate_dataset(TINY_PROFILES["twitter"], seed=13).collection


def make_cluster(collection, *, workers=2, **kwargs):
    index, sim = substrate_from_descriptor(SUBSTRATE, collection.vocabulary)
    return ClusterPool(
        collection,
        index,
        sim,
        alpha=0.8,
        workers=workers,
        substrate=SUBSTRATE,
        **kwargs,
    )


@pytest.fixture(scope="module")
def cluster(base_collection):
    with make_cluster(MutableSetCollection(base_collection)) as pool:
        yield pool


class TestVersionBarrier:
    def test_check_version_mismatch_raises(self):
        with pytest.raises(ClusterError, match="version barrier"):
            check_version(3, 4, where="test")

    def test_mutation_is_visible_to_the_next_query(self, base_collection):
        with make_cluster(
            MutableSetCollection(base_collection)
        ) as cluster:
            tokens = ["barrier_a", "barrier_b", "barrier_c"]
            set_id, _ = cluster.mutate(
                Mutation(INSERT, "barrier_probe", tokens)
            )
            result = cluster.search(frozenset(tokens), K)
            assert result.ids()[0] == set_id
            cluster.mutate(Mutation(DELETE, "barrier_probe"))
            result = cluster.search(frozenset(tokens), K)
            assert set_id not in result.ids()

    def test_version_embeds_live_mutation_count(self, base_collection):
        with make_cluster(
            MutableSetCollection(base_collection)
        ) as cluster:
            before = cluster.version
            cluster.mutate(Mutation(INSERT, "v_probe", ["v_probe"]))
            after = cluster.version
            assert before != after


class TestFailureHandling:
    def test_health_check_restarts_a_killed_worker(self, base_collection):
        with make_cluster(
            MutableSetCollection(base_collection)
        ) as cluster:
            victim = cluster._handles[1]
            victim.process.kill()
            victim.process.join()
            statuses = cluster.health_check()
            assert statuses[1]["restarted"] is True
            assert statuses[1]["alive"] is True
            assert statuses[0]["restarted"] is False
            assert cluster.total_restarts == 1

    def test_closed_pool_refuses_requests(self, base_collection):
        cluster = make_cluster(MutableSetCollection(base_collection))
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(ClusterError, match="closed"):
            cluster.search(frozenset(base_collection[0]), K)


class TestBootstrapValidation:
    def test_premutated_base_is_rejected(self, base_collection):
        overlay = MutableSetCollection(base_collection)
        overlay.insert(["pre_mutation"], name="pre")
        index, sim = substrate_from_descriptor(
            SUBSTRATE, overlay.vocabulary
        )
        with pytest.raises(InvalidParameterError, match="pristine"):
            ClusterPool(
                overlay, index, sim, workers=2, substrate=SUBSTRATE
            )

    def test_in_memory_shipping_needs_a_substrate(self, base_collection):
        index, sim = substrate_from_descriptor(
            SUBSTRATE, base_collection.vocabulary
        )
        with pytest.raises(InvalidParameterError, match="substrate"):
            ClusterPool(base_collection, index, sim, workers=2)

    def test_bootstrap_records_replay_across_the_fleet(
        self, base_collection
    ):
        records = [
            Mutation(INSERT, "boot_a", ("x_boot", "y_boot")),
            Mutation(INSERT, "boot_b", ("x_boot", "z_boot")),
            Mutation(DELETE, "boot_a"),
        ]
        with make_cluster(
            MutableSetCollection(base_collection),
            bootstrap_records=records,
        ) as cluster:
            result = cluster.search(frozenset(["x_boot", "z_boot"]), K)
            names = [entry.name for entry in result.entries]
            assert "boot_b" in names
            assert "boot_a" not in names

    def test_immutable_collection_rejects_mutation(self, base_collection):
        with make_cluster(base_collection) as cluster:
            with pytest.raises(InvalidParameterError, match="immutable"):
                cluster.mutate(Mutation(INSERT, "nope", ["nope"]))

    def test_empty_partitions_are_served_as_empty(self):
        """More workers than sets: some partitions are empty; the fleet
        still answers exactly like an equivalently-sharded pool."""
        tiny = SetCollection(
            [{"alpha", "beta"}, {"beta", "gamma"}, {"gamma", "delta"}],
            names=["s0", "s1", "s2"],
        )
        index, sim = substrate_from_descriptor(SUBSTRATE, tiny.vocabulary)
        pool = EnginePool(tiny, index, sim, alpha=0.8, shards=4)
        with make_cluster(tiny, workers=4) as cluster:
            for query in ({"alpha", "beta"}, {"gamma"}):
                got = cluster.search(frozenset(query), K)
                expected = pool.search(frozenset(query), K)
                assert got.ids() == expected.ids()
                assert got.scores() == expected.scores()


class TestClusterMetrics:
    def test_rollup_sums_counters_and_maxes_quantiles(self):
        metrics = ClusterMetrics(
            {
                0: {
                    "requests": 4,
                    "completed": 4,
                    "errors": 1,
                    "latency_p95": 0.5,
                    "latency_p99": 0.9,
                    "seconds_search": 1.0,
                    "calls_search": 4,
                },
                1: {
                    "requests": 6,
                    "completed": 5,
                    "errors": 0,
                    "latency_p95": 0.2,
                    "latency_p99": 0.3,
                    "seconds_search": 2.5,
                    "calls_search": 5,
                },
            },
            queries=6,
            mutations=2,
            restarts=1,
        )
        rollup = metrics.rollup()
        assert rollup["workers"] == 2
        assert rollup["queries"] == 6
        assert rollup["mutations"] == 2
        assert rollup["restarts"] == 1
        assert rollup["requests"] == 10
        assert rollup["completed"] == 9
        assert rollup["errors"] == 1
        assert rollup["latency_p95"] == 0.5
        assert rollup["latency_p99"] == 0.9
        assert rollup["seconds_search"] == 3.5
        assert rollup["calls_search"] == 9

    def test_live_rollup_counts_partials(self, cluster, base_collection):
        before = cluster.cluster_metrics().rollup()["completed"]
        cluster.search(frozenset(base_collection[0]), K)
        metrics = cluster.cluster_metrics()
        assert metrics.num_workers == 2
        # One scatter = one partial search on every worker.
        assert metrics.rollup()["completed"] == before + 2
        snapshot = metrics.snapshot()
        assert snapshot["backend"] == "cluster"
        assert set(snapshot["per_worker"]) == {"0", "1"}

    def test_stats_snapshot_shape(self, cluster):
        snapshot = cluster.stats_snapshot()
        assert snapshot["backend"] == "cluster"
        assert snapshot["num_sets"] > 0
        assert snapshot["rollup"]["workers"] == 2


class TestSchedulerOverCluster:
    def test_scheduler_serves_identically_over_both_backends(
        self, base_collection
    ):
        index, sim = substrate_from_descriptor(
            SUBSTRATE, base_collection.vocabulary
        )
        pool = EnginePool(
            base_collection, index, sim, alpha=0.8, shards=2
        )
        requests = [
            SearchRequest(
                query=frozenset(base_collection[i]),
                k=K,
                request_id=f"q{i}",
            )
            for i in (0, 3, 5, 3, 0)
        ]
        with QueryScheduler(pool, cache=ResultCache(16)) as scheduler:
            expected = scheduler.answer_many(requests)
        with make_cluster(base_collection) as cluster:
            with QueryScheduler(
                cluster, cache=ResultCache(16)
            ) as scheduler:
                got = scheduler.answer_many(requests)
        for got_response, expected_response in zip(got, expected):
            assert [h.score for h in got_response.hits] == [
                h.score for h in expected_response.hits
            ]
            assert [h.set_id for h in got_response.hits] == [
                h.set_id for h in expected_response.hits
            ]
        # Repeats collapse (in-flight dedup / cache) over the cluster
        # backend exactly like over the pool backend.
        assert got[3].deduplicated or got[3].cached
        assert got[4].deduplicated or got[4].cached
