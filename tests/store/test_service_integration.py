"""Store <-> service wiring: wire ops, hot-swap, WAL durability,
version-keyed caching."""

import io
import json

import pytest

from repro.embedding import VectorStore
from repro.index import ExactCosineIndex
from repro.service import EnginePool, QueryScheduler, ResultCache
from repro.service.request import SearchRequest
from repro.service.server import serve_lines
from repro.store import MutableSetCollection, WriteAheadLog
from repro.store.mutation import INSERT, Mutation


@pytest.fixture()
def overlay(tiny_opendata):
    return MutableSetCollection(tiny_opendata.collection)


@pytest.fixture()
def fresh_index(tiny_opendata):
    """A per-test substrate: mutations extend the vector store in place,
    which must never touch the session-scoped shared stack."""
    provider = tiny_opendata.dataset.provider
    store = VectorStore(provider, tiny_opendata.collection.vocabulary)
    return ExactCosineIndex(store, provider)


@pytest.fixture()
def pool(tiny_opendata, overlay, fresh_index):
    return EnginePool(
        overlay,
        fresh_index,
        tiny_opendata.sim,
        alpha=0.8,
        shards=2,
    )


def serve(scheduler, lines):
    out = io.StringIO()
    serve_lines(scheduler, io.StringIO("".join(lines)), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestWireOps:
    def test_insert_search_delete_cycle(self, tiny_opendata, pool):
        tokens = sorted(tiny_opendata.collection[0])
        with QueryScheduler(pool, cache=ResultCache(32)) as scheduler:
            responses = serve(scheduler, [
                json.dumps({"id": "q1", "query": tokens, "k": 3}) + "\n",
                json.dumps(
                    {"op": "insert", "name": "dup", "tokens": tokens}
                ) + "\n",
                json.dumps({"id": "q2", "query": tokens, "k": 3}) + "\n",
                json.dumps({"op": "delete", "name": "dup"}) + "\n",
                json.dumps({"id": "q3", "query": tokens, "k": 3}) + "\n",
            ])
        q1, ins, q2, dele, q3 = responses
        names_q2 = [hit["name"] for hit in q2["results"]]
        assert "dup" in names_q2
        assert ins["set_id"] == dele["set_id"]
        assert ins["version"] != dele["version"]
        assert [h["name"] for h in q1["results"]] == [
            h["name"] for h in q3["results"]
        ]
        assert "dup" not in [h["name"] for h in q3["results"]]

    def test_replace_op_swaps_contents(self, tiny_opendata, pool):
        tokens = sorted(tiny_opendata.collection[1])
        with QueryScheduler(pool) as scheduler:
            responses = serve(scheduler, [
                json.dumps({
                    "op": "replace", "name": "set_0", "tokens": tokens,
                }) + "\n",
                json.dumps({"id": "q", "query": tokens, "k": 5}) + "\n",
            ])
            collection = scheduler.pool.collection
            replaced, q = responses
            # The name survives on a fresh id holding the new contents.
            assert replaced["op"] == "replace"
            assert collection.id_of("set_0") == replaced["set_id"]
            assert collection[replaced["set_id"]] == frozenset(tokens)
        # Now an exact duplicate of set_1: same top score (ties go to the
        # lower id, so it need not be ranked first).
        hits = {h["name"]: h["score"] for h in q["results"]}
        assert hits["set_0"] == hits["set_1"] == q["results"][0]["score"]

    def test_mutation_on_immutable_collection_is_an_error_line(
        self, tiny_opendata
    ):
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
        )
        with QueryScheduler(pool) as scheduler:
            responses = serve(scheduler, [
                '{"op": "insert", "name": "x", "tokens": ["a"]}\n',
            ])
        assert "immutable" in responses[0]["error"]

    def test_inserted_novel_tokens_stream_by_similarity(self):
        """A new token must be findable through *similar* (not just
        identical) query tokens: pool.mutate extends the vector store,
        so the cosine stream sees the fresh row immediately. Uses the
        subword hashing provider, under which typo variants land close."""
        from repro.datasets import SetCollection
        from repro.embedding import HashingEmbeddingProvider
        from repro.sim import CosineSimilarity

        overlay = MutableSetCollection(
            SetCollection([{"boston", "newyork"}], names=["east"])
        )
        provider = HashingEmbeddingProvider(dim=64)
        store = VectorStore(provider, overlay.vocabulary)
        pool = EnginePool(
            overlay,
            ExactCosineIndex(store, provider),
            CosineSimilarity(provider),
            alpha=0.8,
        )
        pool.mutate(
            Mutation(INSERT, "novel", ["reproducibility", "benchmarking"])
        )
        result = pool.search(
            frozenset({"reproducibilty"}), 2, alpha=0.5  # typo variant
        )
        names = [
            pool.collection.name_of(entry.set_id)
            for entry in result.entries
        ]
        assert "novel" in names

    def test_mutation_op_applies_after_pending_window_drains(
        self, tiny_opendata, pool
    ):
        """With linger > 1 a queued query precedes the mutation on the
        wire, so it must be answered against the pre-mutation state."""
        tokens = sorted(tiny_opendata.collection[0])
        out = io.StringIO()
        with QueryScheduler(pool) as scheduler:
            serve_lines(
                scheduler,
                io.StringIO(
                    json.dumps({"id": "before", "query": tokens, "k": 3})
                    + "\n"
                    + json.dumps(
                        {"op": "insert", "name": "late", "tokens": tokens}
                    )
                    + "\n"
                    + json.dumps({"id": "after", "query": tokens, "k": 3})
                    + "\n"
                ),
                out,
                linger=10,  # nothing flushes until the op arrives
            )
        responses = {
            obj.get("id", obj.get("op")): obj
            for obj in map(json.loads, out.getvalue().splitlines())
        }
        before = [h["name"] for h in responses["before"]["results"]]
        after = [h["name"] for h in responses["after"]["results"]]
        assert "late" not in before
        assert "late" in after

    def test_malformed_mutations_are_error_lines(self, pool):
        with QueryScheduler(pool) as scheduler:
            responses = serve(scheduler, [
                '{"op": "insert", "tokens": ["a"]}\n',
                '{"op": "insert", "name": "x"}\n',
                '{"op": "delete", "name": "no_such_set"}\n',
                '{"op": "insert", "name": "x", "tokens": [1]}\n',
            ])
        assert all("error" in response for response in responses)


class TestIndexAlphaFloor:
    def test_request_alpha_below_index_build_alpha_is_refused(
        self, tiny_opendata
    ):
        """A prefix-Jaccard index is only exact at or above its build
        alpha; a wire request below it must fail loudly instead of
        silently dropping matches in [request_alpha, build_alpha)."""
        from repro.index import PrefixJaccardIndex
        from repro.sim import QGramJaccardSimilarity

        collection = tiny_opendata.collection
        sim = QGramJaccardSimilarity(q=3)
        pool = EnginePool(
            collection,
            PrefixJaccardIndex(
                collection.vocabulary, alpha=0.8, similarity=sim
            ),
            sim,
            alpha=0.8,
        )
        query = frozenset(sorted(collection[0])[:2])
        with QueryScheduler(pool) as scheduler:
            refused = scheduler.answer(
                SearchRequest(query=query, k=2, alpha=0.4)
            )
            assert refused.error is not None
            assert "alpha" in refused.error
            served = scheduler.answer(
                SearchRequest(query=query, k=2, alpha=0.9)
            )
            assert served.error is None


class TestVersionedCaching:
    def test_mutation_makes_cached_results_unreachable(
        self, tiny_opendata, pool
    ):
        cache = ResultCache(32)
        tokens = frozenset(tiny_opendata.collection[0])
        with QueryScheduler(pool, cache=cache) as scheduler:
            first = scheduler.answer(SearchRequest(query=tokens, k=3))
            repeat = scheduler.answer(SearchRequest(query=tokens, k=3))
            assert repeat.cached
            scheduler.insert_set(tokens, name="cache_buster")
            fresh = scheduler.answer(SearchRequest(query=tokens, k=3))
            assert not fresh.cached
            assert "cache_buster" in [hit.name for hit in fresh.hits]
        assert first.hits != fresh.hits

    def test_pool_version_reflects_live_overlay(self, overlay, pool):
        assert pool.version == (0, 0)
        overlay.insert({"brand", "new"}, name="vtest")
        assert pool.version == (0, 1)


class TestWalDurability:
    def test_mutations_survive_a_restart_via_wal(
        self, tiny_opendata, tmp_path
    ):
        wal_path = tmp_path / "serve.wal"
        tokens = sorted(tiny_opendata.collection[0])
        provider = tiny_opendata.dataset.provider

        def build_scheduler():
            overlay = MutableSetCollection(tiny_opendata.collection)
            wal = WriteAheadLog(wal_path)
            wal.replay_into(overlay)
            store = VectorStore(provider, overlay.vocabulary)
            pool = EnginePool(
                overlay,
                ExactCosineIndex(store, provider),
                tiny_opendata.sim,
                alpha=0.8,
            )
            return QueryScheduler(pool, wal=wal)

        with build_scheduler() as scheduler:
            scheduler.insert_set(tokens, name="durable")
            scheduler.insert_set(["throwaway"], name="gone")
            scheduler.delete_set("gone")

        # "Restart": a fresh overlay replays the WAL back to the same
        # state and serves the durable set.
        with build_scheduler() as scheduler:
            collection = scheduler.pool.collection
            assert collection.contains_name("durable")
            assert not collection.contains_name("gone")
            response = scheduler.answer(
                SearchRequest(query=frozenset(tokens), k=2)
            )
            assert "durable" in [hit.name for hit in response.hits]
