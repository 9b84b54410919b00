"""EnginePool hot-swap under concurrent query load.

Queries racing a version bump must each observe ONE consistent engine
version — every concurrent result must be byte-identical to the result
at some collection state the mutator actually produced, never a mixed
view (e.g. a query that saw the insert in one token's postings but not
another's). The pool's reader-writer lock is what guarantees this:
searches hold a read lock across the whole scatter, mutations are
write-exclusive.
"""

import threading

import pytest

from repro.embedding import VectorStore
from repro.index import ExactCosineIndex
from repro.service import EnginePool
from repro.store import MutableSetCollection

K = 10
ALPHA = 0.8
MUTATION_ROUNDS = 25
QUERY_THREADS = 3


def fingerprint(result):
    """Version-independent identity of a result: the probe set's id
    changes every insert (fresh slot), so compare names + scores +
    theta_k rather than raw ids."""
    return (
        tuple(entry.name for entry in result.entries),
        tuple(result.scores()),
        result.theta_k,
    )


@pytest.fixture()
def pool(tiny_opendata):
    overlay = MutableSetCollection(tiny_opendata.collection)
    provider = tiny_opendata.dataset.provider
    store = VectorStore(provider, overlay.vocabulary)
    index = ExactCosineIndex(store, provider)
    active = EnginePool(
        overlay, index, tiny_opendata.sim, alpha=ALPHA, shards=2
    )
    yield active
    active.shutdown()


def test_queries_across_version_bumps_see_consistent_state(
    tiny_opendata, pool
):
    query = frozenset(tiny_opendata.collection[5])
    probe_tokens = sorted(query)[:3] + ["hot_swap_probe_token"]

    # The two states the mutator below oscillates between, captured
    # quiescently: without the probe (A) and with it (B).
    state_a = fingerprint(pool.search(query, K))
    pool.insert(probe_tokens, name="hot_swap_probe")
    state_b = fingerprint(pool.search(query, K))
    pool.delete("hot_swap_probe")
    assert state_a != state_b, "probe must be visible in the top-k"
    expected = {state_a, state_b}

    mixed_views = []
    errors = []
    stop = threading.Event()

    def querier():
        try:
            while not stop.is_set():
                observed = fingerprint(pool.search(query, K))
                if observed not in expected:
                    mixed_views.append(observed)
        except Exception as exc:  # noqa: BLE001 — surface in the test
            errors.append(exc)

    def mutator():
        try:
            for _ in range(MUTATION_ROUNDS):
                pool.insert(probe_tokens, name="hot_swap_probe")
                pool.delete("hot_swap_probe")
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    threads = [
        threading.Thread(target=querier) for _ in range(QUERY_THREADS)
    ]
    threads.append(threading.Thread(target=mutator))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert not mixed_views, (
        f"{len(mixed_views)} queries observed a state matching neither "
        f"version: {mixed_views[:2]}"
    )


def test_search_version_is_stable_within_one_call(tiny_opendata, pool):
    """A search that raced a mutation returns results for exactly one
    version — re-searching at the now-quiescent state must reproduce
    either the old or the new answer, and the pool must be fresh."""
    query = frozenset(tiny_opendata.collection[0])
    before = pool.search(query, K)
    set_id = pool.insert(sorted(query), name="stability_probe")
    after = pool.search(query, K)
    assert set_id in after.ids()
    # The swap happened exactly once: version now reflects the single
    # insert and repeated searches are stable.
    assert pool.search(query, K).ids() == after.ids()
    pool.delete("stability_probe")
    assert pool.search(query, K).ids() == before.ids()


def test_concurrent_first_readers_share_one_advance(
    tiny_opendata, pool, monkeypatch
):
    """Searches arriving together right after a mutation find the
    columnar context already advanced: the swap happens once, under the
    write lock, not once per reader that got there before the first one
    finished."""
    from repro.core.fastpath import ColumnarPartition
    from repro.core.koios import KoiosSearchEngine

    query = frozenset(tiny_opendata.collection[5])
    probe_tokens = sorted(query)[:3] + ["hot_swap_probe_token"]
    pool.search(query, K)  # contexts exist before the mutation
    engines = list(pool._engines)

    calls = {"advance": [], "build": 0}
    advance, build = KoiosSearchEngine.advance, ColumnarPartition.build

    def counting_advance(self, new_ids):
        calls["advance"].append(id(self))
        return advance(self, new_ids)

    def counting_build(inverted, table):
        calls["build"] += 1
        return build(inverted, table)

    monkeypatch.setattr(KoiosSearchEngine, "advance", counting_advance)
    monkeypatch.setattr(
        ColumnarPartition, "build", staticmethod(counting_build)
    )

    pool.insert(probe_tokens, name="hot_swap_probe")
    readers = 4
    start = threading.Barrier(readers)
    results, errors = [None] * readers, []

    def reader(slot):
        try:
            start.wait(timeout=60)
            results[slot] = pool.search(query, K)
        except Exception as exc:  # noqa: BLE001 — surface in the test
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(readers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors

    assert sorted(calls["advance"]) == sorted(id(e) for e in engines)
    assert calls["build"] == 0
    assert pool._engines == engines
    assert pool.stats_snapshot()["hot_swaps"] == 1
    serial = pool.search(query, K)
    assert "hot_swap_probe" in [entry.name for entry in serial.entries]
    for result in results:
        assert result.ids() == serial.ids()
        assert result.scores() == serial.scores()
        assert result.theta_k == serial.theta_k
