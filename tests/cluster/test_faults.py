"""Fault injection against live worker processes.

Three escalating contracts:

* a *timeout* on the primary fails a read over to a live replica and
  the answer stays bitwise-exact;
* the full 110-op randomized workload survives a seeded schedule of
  kills and drops at ``--replicas 2`` with zero failed requests, zero
  degraded answers, and every non-degraded result bitwise-identical to
  the single-process baseline;
* with no replica to fail over to (``replicas=1``) and revival pinned
  down by injected bootstrap failures, a search *degrades* within its
  deadline — honest ``coverage``, ``degraded=True`` — and recovers to
  full bitwise-exact coverage once the fault schedule drains.
"""

import time

import pytest

from repro.cluster import ClusterPool
from repro.cluster.faults import (
    BOOTSTRAP,
    KILL,
    SLOW,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    run_chaos,
)
from repro.cluster.replication import RetryPolicy
from repro.cluster.worker import substrate_from_descriptor
from repro.datasets import TINY_PROFILES, generate_dataset
from repro.service import EnginePool
from repro.store import MutableSetCollection

WORKERS = 2
K = 10
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


def make_baseline(base_collection):
    index, sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    return EnginePool(
        MutableSetCollection(base_collection),
        index,
        sim,
        alpha=0.8,
        shards=WORKERS,
    )


def make_cluster(base_collection, **kwargs):
    index, sim = substrate_from_descriptor(
        SUBSTRATE, base_collection.vocabulary
    )
    return ClusterPool(
        MutableSetCollection(base_collection),
        index,
        sim,
        alpha=0.8,
        workers=WORKERS,
        substrate=SUBSTRATE,
        **kwargs,
    )


def assert_bitwise_equal(got, expected, context):
    assert got.ids() == expected.ids(), context
    assert got.scores() == expected.scores(), context
    assert got.theta_k == expected.theta_k, context


def test_slow_primary_times_out_and_fails_over_to_replica(
    base_collection,
):
    """An injected 5s reply delay against a 1.5s request timeout: the
    read must come back from the sibling replica, exact, undegraded."""
    plan = FaultPlan(
        events=(
            FaultEvent(at_op=0, kind=SLOW, partition=0, replica=0,
                       duration=5.0),
        )
    )
    baseline = make_baseline(base_collection)
    try:
        with make_cluster(
            base_collection,
            replicas=2,
            request_timeout=1.5,
            fault_injector=FaultInjector(plan),
        ) as cluster:
            query = frozenset(base_collection[0])
            got = cluster.search(query, K)
            assert_bitwise_equal(
                got, baseline.search(query, K), "timeout failover"
            )
            assert got.degraded is False
            rollup = cluster.cluster_metrics().rollup()
            assert rollup["worker_timeouts"] == 1
            assert rollup["failovers"] >= 1
            assert rollup["degraded"] == 0
    finally:
        baseline.shutdown()


def test_chaos_110_ops_replicated_survives_kills_bitwise(
    base_collection,
):
    """The acceptance gate: the full 110-op randomized workload at
    replicas=2 under a seeded plan that kills 3 workers and drops a
    pipe — zero failures, zero mismatches, nothing degraded."""
    plan = FaultPlan.from_seed(
        7,
        ops=110,
        partitions=WORKERS,
        replicas=2,
        kills=3,
        drops=1,
    )
    report = run_chaos(
        base_collection,
        SUBSTRATE,
        plan=plan,
        workers=WORKERS,
        replicas=2,
        ops=110,
        k=K,
        seed=31,
        request_timeout=30.0,
    )
    assert report["ok"], report
    assert report["faults"]["fired"][KILL] == 3
    assert report["faults"]["unfired"] == 0
    assert report["request_failures"] == 0, report["failure_details"]
    assert report["mismatches"] == 0
    assert report["degraded_queries"] == 0
    assert report["hung_requests"] == 0
    assert report["queries"] >= 30 and report["mutations"] >= 30
    assert report["restarts"] >= 3  # every kill/drop victim came back


def test_partition_fully_down_degrades_with_accurate_coverage(
    base_collection,
):
    """replicas=1, the only replica of partition 0 killed, and every
    revival attempt pinned down by injected bootstrap failures: the
    search degrades within its deadline instead of erroring; once the
    bootstrap faults drain, the next search recovers full coverage and
    is bitwise-exact again."""
    # Arm exactly as many bootstrap failures as the retry policy will
    # attempt (max_attempts=3), so op 1 degrades and op 2 recovers.
    plan = FaultPlan(
        events=(
            FaultEvent(at_op=1, kind=BOOTSTRAP, partition=0, replica=0,
                       count=3),
            FaultEvent(at_op=1, kind=KILL, partition=0, replica=0),
        )
    )
    timeout = 15.0
    baseline = make_baseline(base_collection)
    try:
        with make_cluster(
            base_collection,
            replicas=1,
            request_timeout=timeout,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.05, max_delay=0.1,
                jitter=0.0,
            ),
            fault_injector=FaultInjector(plan),
        ) as cluster:
            query = frozenset(base_collection[0])
            healthy = cluster.search(query, K)  # op 0
            assert healthy.degraded is False
            assert healthy.coverage is None

            started = time.monotonic()
            partial = cluster.search(query, K)  # op 1: kill + pinned
            elapsed = time.monotonic() - started
            assert partial.degraded is True
            assert partial.coverage == (1, WORKERS)
            # Bounded by the per-op deadline (two receive-timeout
            # windows), not by open-ended retry.
            assert elapsed < 2.0 * timeout + 5.0
            # The answer is partition 1's honest partial: every hit
            # comes from the surviving partition's id slice.
            parts = base_collection.partition(WORKERS, seed=0)
            assert set(partial.ids()) <= set(parts[1])
            expected = baseline.search(query, K)

            rollup = cluster.cluster_metrics().rollup()
            assert rollup["degraded"] == 1

            recovered = cluster.search(query, K)  # op 2: faults drained
            assert recovered.degraded is False
            assert recovered.coverage is None
            assert_bitwise_equal(
                recovered, expected, "post-recovery exactness"
            )
            assert cluster.cluster_metrics().rollup()["degraded"] == 1
    finally:
        baseline.shutdown()


def test_liveness_observes_a_down_replica_without_repairing(
    base_collection,
):
    """While a partition is down, ``liveness`` reports it dead — the
    observation a gateway's /readyz flips on — without restarting it
    (that is ``health_check``'s job); the next search repairs it and
    liveness recovers."""
    with make_cluster(
        base_collection, replicas=1, request_timeout=10.0
    ) as cluster:
        victim = cluster.replica_handle(1, 0)
        victim.process.kill()
        victim.process.join()

        def alive_map():
            return {
                (s["worker_id"], s["replica"]): s["alive"]
                for s in cluster.liveness()
            }

        down = alive_map()
        assert down[(1, 0)] is False
        assert down[(0, 0)] is True
        # Observation only: the victim is still down afterwards.
        assert alive_map()[(1, 0)] is False

        result = cluster.search(frozenset(base_collection[0]), K)
        assert result.degraded is False  # revived within the deadline
        assert alive_map()[(1, 0)] is True
        assert cluster.total_restarts >= 1


def test_background_restart_catches_up_across_a_replace(base_collection):
    """A replace broadcast while a replica re-bootstraps in the
    background moves the version by two (delete + insert). The restart's
    catch-up must expect that version, not one more per record, or the
    worker refuses it at the version barrier and the replica stays
    down."""
    baseline = make_baseline(base_collection)
    try:
        with make_cluster(
            base_collection, replicas=2, request_timeout=10.0
        ) as cluster:
            victim = cluster.replica_handle(0, 0)
            name = base_collection.name_of(3)
            tokens = sorted(base_collection[5])[:4] + ["catch-up-token"]
            spawn = victim.spawn

            calls = []

            def spawn_after_a_replace(spec=None, **kwargs):
                # The spec is built; the replace lands in the catch-up.
                calls.append(1)
                cluster.replace(name, tokens)
                baseline.replace(name, tokens)
                return spawn(spec, **kwargs)

            victim.spawn = spawn_after_a_replace
            victim.process.kill()
            victim.process.join()
            # The broadcast finds the victim dead; its sibling covers the
            # partition, so the respawn goes to the background restarter.
            detector = ["detector-a", "detector-b"]
            cluster.insert(detector, name="detector")
            baseline.insert(detector, name="detector")
            query = frozenset(base_collection[0])
            deadline = time.monotonic() + 60.0
            while victim.restarting and time.monotonic() < deadline:
                time.sleep(0.05)
            assert calls == [1], "the restart never reached the spawn"
            assert not victim.restarting
            assert victim.alive(), "the catch-up left the replica down"
            assert victim.restarts == 1
            for probe in (query, frozenset(tokens)):
                assert_bitwise_equal(
                    cluster.search(probe, K),
                    baseline.search(probe, K),
                    "after the catch-up",
                )
    finally:
        baseline.shutdown()
