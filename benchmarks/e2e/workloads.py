"""The four closed-loop, single-client workloads.

Each workload is: seeded op slots (``prepare``), a cold construction of
the program ending in one answered warm-up query (``construct``), one
pass over the slots (``run_pass``) and the answer check (``check``).
The program only ever receives generated inputs; everything timed is a
call into a public function, or a public counter of ``SearchResult``.

Why these four: each layer a ROADMAP item wants to optimise does most of
the work in one of them and almost none in another.

* ``engine_dense_50k`` — bare engine, dense candidates: ``core`` does
  all the work, store/service/gateway none.
* ``pool_pruned_200k`` — long sparse corpus behind the scheduler: index
  drain, columnar refinement state, mmap residency and shard merge,
  light verification. The mirror image of the first.
* ``service_rw_200k`` — the same stack with one mutation before every
  search: hot swap, WAL append and version-keyed invalidation.
* ``gateway_hot_200k`` — every request a cache hit over a real socket:
  gateway parse/admission/ordering/encode and the cache path, no core.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

import corpus as corpora
from spans import BackendProxy, SchedulerProxy, Tracer, WalProxy

#: ``--seconds`` at which ``Workload.passes`` is the pass count.
REFERENCE_SECONDS = 18
SHARDS = 2
CACHE_SIZE = 1024
SAMPLED_OTHERS = 200
#: float32 similarities summed over a matching: far below the gap
#: between two different answers, far above rounding.
SCORE_TOLERANCE = 1e-4


@dataclass
class PassResult:
    latency: np.ndarray  # per slot: seconds of the search
    busy: np.ndarray     # per slot: wall seconds, mutation included
    outputs: list        # per slot: what the program answered


def _zipf_weights(count: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def _hits(response) -> tuple:
    return tuple((h.set_id, h.name, h.score) for h in response.hits)


# -- seeded inputs ---------------------------------------------------------


def base_sets(corpus, count: int, lo: int, hi: int, salt: int) -> list[int]:
    """``count`` set ids with ``lo <= size <= hi`` from distinct
    families, drawn with the *corpus* seed: the same for every
    ``--seed``, so the mix of work is a property of the workload and the
    run-to-run spread measures the program, not the draw."""
    rng = np.random.default_rng([corpus.spec["corpus_seed"], salt])
    group = corpus.spec.get("variants", 1)
    sizes = np.diff(corpus.offsets)
    chosen: list[int] = []
    groups: set[int] = set()
    for set_id in rng.permutation(corpus.num_sets).tolist():
        if lo <= sizes[set_id] <= hi and set_id // group not in groups:
            groups.add(set_id // group)
            chosen.append(set_id)
            if len(chosen) == count:
                return chosen
    raise ValueError("corpus too small for the requested base sets")


def respell(corpus, set_id: int, rng, swaps: int = 1) -> frozenset[str]:
    """The set with ``swaps`` tokens exchanged for a similar token it
    does not hold: another spelling of the word (family corpus) or
    another member of the token's cluster (dense corpus). This is what
    ``--seed`` varies: the query changes, the amount of work barely."""
    ids = corpus.member_ids(set_id).tolist()
    held = set(ids)
    for position in rng.permutation(len(ids)).tolist():
        if swaps == 0:
            break
        options = [
            t for t in corpus.similar_ids(ids[position]) if t not in held
        ]
        if options:
            held.discard(ids[position])
            ids[position] = options[int(rng.integers(len(options)))]
            held.add(ids[position])
            swaps -= 1
    return frozenset(corpus.tokens[t] for t in ids)


# -- answer check ----------------------------------------------------------


class Checker:
    """Recomputes answers from the corpus arrays, outside the timed
    region, with a similarity built by the harness (not the program's)."""

    def __init__(self, corpus, seed: int) -> None:
        from repro.sim.cosine import CosineSimilarity

        spec = corpus.spec
        self.corpus = corpus
        self.alpha, self.k = spec["alpha"], spec["k"]
        self.rng = np.random.default_rng([seed, 7])
        if spec["kind"] == "family":
            from repro.embedding.provider import VectorStore

            provider = corpora.family_provider(spec)
            store = VectorStore.from_state(
                provider, corpus.tokens, corpus.vectors
            )
            self.sim = CosineSimilarity(provider, store=store)
        else:
            from repro.embedding.synthetic import SyntheticEmbeddingModel

            self.sim = CosineSimilarity(SyntheticEmbeddingModel(
                dim=spec["dim"],
                clusters=corpora.dense_clusters(spec),
                cluster_similarity=spec["cluster_similarity"],
            ))
        #: rw model: ids the program assigned to inserted/replaced sets,
        #: and ids that must never be returned again.
        self.overrides: dict[int, frozenset[str]] = {}
        self.dead: set[int] = set()

    def overlap(self, query, tokens) -> float:
        from repro.core.semantic_overlap import semantic_overlap

        return semantic_overlap(query, tokens, self.sim, self.alpha)

    def tokens_of(self, set_id: int):
        if set_id in self.dead:
            return None
        if set_id in self.overrides:
            return self.overrides[set_id]
        if 0 <= set_id < self.corpus.num_sets:
            return self.corpus.token_set(set_id)
        return None

    def search_ok(self, query, hits, *, related=()) -> bool:
        """Every score is the recomputed semantic overlap, in rank
        order, and no sampled other set (nor any of ``related``) beats
        the k-th score."""
        if len({h[0] for h in hits}) != len(hits) or len(hits) > self.k:
            return False
        previous = float("inf")
        for set_id, _, score in hits:
            tokens = self.tokens_of(set_id)
            if tokens is None or score > previous:
                return False
            if abs(self.overlap(query, tokens) - score) > SCORE_TOLERANCE:
                return False
            previous = score
        theta_k = hits[-1][2] if len(hits) == self.k else 0.0
        returned = {h[0] for h in hits}
        others = set(
            self.rng.integers(0, self.corpus.num_sets, SAMPLED_OTHERS).tolist()
        )
        others.update(related)
        others.update(self.overrides)
        for set_id in sorted(others - returned - self.dead):
            tokens = self.tokens_of(set_id)
            if self.overlap(query, tokens) > theta_k + SCORE_TOLERANCE:
                return False
        return True

    def family_of(self, set_id: int) -> range:
        group = self.corpus.spec.get("variants", 1)
        first = set_id - set_id % group
        return range(first, first + group)


def passes_identical(results: list[PassResult]) -> list[bool]:
    """Per slot: did every pass answer bitwise the same?"""
    first = results[0].outputs
    return [
        all(result.outputs[slot] == first[slot] for result in results[1:])
        for slot in range(len(first))
    ]


# -- workloads -------------------------------------------------------------


class Workload:
    name = ""
    #: op slots per pass, and passes at REFERENCE_SECONDS (full scale).
    slots = 0
    passes = 0
    corpus_full: dict = {}
    corpus_smoke: dict = {}
    #: a mutating workload gets a fresh construction for every pass, so
    #: all passes start from one state and answer identically.
    rebuild_each_pass = False
    #: the traced pass is ``measure_pass``, a different shape from
    #: ``run_pass`` (and needs its own untraced twin).
    probes = False

    def __init__(self, *, smoke: bool, seed: int, seconds: float) -> None:
        self.smoke = smoke
        self.seed = seed
        self.passes = max(2, round(self.passes * seconds / REFERENCE_SECONDS))
        if smoke:
            self.passes = 2
        self.rng = np.random.default_rng([seed, 1])
        self.corpus = None
        self.searches_per_pass = 0
        self.prefill_seconds = 0.0
        self.wal_bytes = 0
        self.refused = 0
        #: ids the program gave to sets the workload inserted.
        self.inserted: dict[int, frozenset[str]] = {}
        self.scratch = corpora.CACHE_DIR / "tmp" / f"{self.name}-{seed}"

    @classmethod
    def corpus_spec(cls, smoke: bool) -> dict:
        return cls.corpus_smoke if smoke else cls.corpus_full

    def load(self):
        self.corpus = corpora.load_corpus(self.corpus_spec(self.smoke))
        self.spec = self.corpus.spec
        self.snapshot = self.corpus.snapshot_path
        self.corpus_build_seconds = self.corpus.build_seconds
        return self.corpus

    def draw_queries(self, count: int, lo: int, hi: int, salt: int) -> None:
        """``count`` respelled base sets as queries, and one more base
        set — unrespelled, so the same for every seed — to warm up on."""
        bases = base_sets(self.corpus, count + 1, lo, hi, salt)
        self.warmup = self.corpus.token_set(bases[0])
        self.bases = bases[1:]
        self.queries = [
            respell(self.corpus, base, self.rng) for base in self.bases
        ]

    def result_cache(self):
        """The program's ``ResultCache``, when the workload has one."""
        return None

    def prefill(self, tracer: Tracer) -> None:
        """Fill the program's caches for the passes that follow; after
        ``construct`` and not part of the set-up time."""

    def reload_corpus(self):
        """The corpus is dropped before construction so the harness's
        copy does not sit in the measured RSS; the check reloads it."""
        if self.corpus is None:
            self.corpus = corpora.load_corpus(self.spec)
        return self.corpus

    def measure_pass(self, tracer: Tracer) -> PassResult:
        """The pass the traced run records spans for, and its untraced
        twin that the tracing overhead is taken against."""
        return self.run_pass(tracer)

    def answered(self, results: list[PassResult]) -> list[tuple]:
        """``(query, hits)`` of every search of the first pass."""
        raise NotImplementedError

    def matched_pairs(self, results: list[PassResult]):
        """``(query, result set)`` token pairs of the workload's own
        answers, and a similarity to weigh them with."""
        checker = Checker(self.reload_corpus(), self.seed)
        checker.overrides = dict(self.inserted)
        pairs = []
        for query, hits in self.answered(results):
            for hit in hits:
                tokens = checker.tokens_of(hit[0])
                if tokens is not None:
                    pairs.append((query, tokens))
        return pairs, checker.sim, checker.alpha

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class EngineDense(Workload):
    name = "engine_dense_50k"
    slots = 3
    passes = 3
    corpus_full, corpus_smoke = corpora.DENSE_FULL, corpora.DENSE_SMOKE

    def prepare(self) -> None:
        self.sets = self.load().token_lists()
        self.draw_queries(self.slots, 15, 25, salt=1)
        self.searches_per_pass = self.slots
        self.corpus = None

    def construct(self, tracer: Tracer) -> None:
        from repro.core.config import FilterConfig
        from repro.core.koios import KoiosSearchEngine
        from repro.datasets.collection import SetCollection
        from repro.embedding.provider import VectorStore
        from repro.embedding.synthetic import SyntheticEmbeddingModel
        from repro.index.vector_index import ExactCosineIndex
        from repro.sim.cosine import CosineSimilarity

        spec = self.spec
        collection = SetCollection(self.sets)
        provider = SyntheticEmbeddingModel(
            dim=spec["dim"],
            clusters=corpora.dense_clusters(spec),
            cluster_similarity=spec["cluster_similarity"],
        )
        store = VectorStore(provider, collection.vocabulary)
        self.engine = KoiosSearchEngine(
            collection,
            ExactCosineIndex(store, provider),
            CosineSimilarity(provider),
            alpha=spec["alpha"],
            config=FilterConfig.koios(engine="columnar"),
        )
        self.engine.search(self.warmup, spec["k"])

    def run_pass(self, tracer: Tracer) -> PassResult:
        k = self.spec["k"]
        seconds, outputs = [], []
        for query in self.queries:
            with tracer.span("op", root=True):
                started = time.perf_counter()
                if tracer.enabled:
                    with tracer.span("index.drain"):
                        stream = self.engine.drain(query)
                    with tracer.span("core.search") as span:
                        result = self.engine.search(query, k, stream=stream)
                        tracer.add_phases(span["start"], result.stats)
                else:
                    result = self.engine.search(query, k)
                seconds.append(time.perf_counter() - started)
            outputs.append(tuple(
                (e.set_id, e.name, e.score) for e in result.entries
            ))
        elapsed = np.asarray(seconds)
        return PassResult(elapsed, elapsed, outputs)

    def close(self) -> None:
        self.engine = None

    def check(self, results: list[PassResult]) -> tuple[int, int]:
        checker = Checker(self.reload_corpus(), self.seed)
        same = passes_identical(results)
        failed = 0
        for slot, query in enumerate(self.queries):
            ok = same[slot] and checker.search_ok(
                query, results[0].outputs[slot]
            )
            failed += not ok
        return self.slots, failed

    def answered(self, results: list[PassResult]) -> list[tuple]:
        return list(zip(self.queries, results[0].outputs))


class _Served(Workload):
    """Shared by the three workloads that serve the family snapshot."""

    use_wal = False
    corpus_full, corpus_smoke = corpora.FAMILY_FULL, corpora.FAMILY_SMOKE

    def result_cache(self):
        return self.stack.scheduler.cache

    def construct(self, tracer: Tracer) -> None:
        self.stack = self.build_stack(tracer)
        self.stack.scheduler.answer(self.request(self.warmup, "warmup"))

    def close(self) -> None:
        self.stack.close()
        self.stack = None

    def request(self, query, request_id: str):
        from repro.service import SearchRequest

        return SearchRequest(
            query=query, k=self.spec["k"], request_id=request_id
        )

    def build_stack(self, tracer: Tracer, *, namespace=None):
        """The serving stack: ``build_serving_stack`` as ``repro serve``
        calls it, or — traced — the same steps one by one with a span
        around each and proxies in front of the pool and the WAL."""
        from repro.service import build_serving_stack

        wal_path = None
        if self.use_wal:
            self.scratch.mkdir(parents=True, exist_ok=True)
            wal_path = self.scratch / f"ops-{time.perf_counter_ns()}.wal"
        alpha = self.spec["alpha"]
        if not tracer.enabled:
            return build_serving_stack(
                self.snapshot,
                alpha=alpha,
                shards=SHARDS,
                parallel_shards=False,
                workers=1,
                cache_size=CACHE_SIZE,
                wal_path=wal_path,
                cache_namespace=namespace,
            )
        from repro.core.config import FilterConfig
        from repro.service import (
            EnginePool, QueryScheduler, ResultCache, ServingStack,
        )
        from repro.store import WriteAheadLog, load_snapshot

        with tracer.span("setup", root=True):
            with tracer.span("store.load_snapshot"):
                loaded = load_snapshot(self.snapshot)
            with tracer.span("store.overlay"):
                overlay = loaded.mutable()
            with tracer.span("service.pool_build"):
                pool = EnginePool(
                    overlay,
                    loaded.token_index,
                    loaded.sim,
                    alpha=alpha,
                    shards=SHARDS,
                    parallel_shards=False,
                    config=FilterConfig.koios(engine="columnar"),
                )
            wal = None
            if wal_path is not None:
                wal = WalProxy(WriteAheadLog(wal_path), tracer)
            scheduler = QueryScheduler(
                BackendProxy(pool, tracer),
                cache=ResultCache(capacity=CACHE_SIZE),
                max_batch=8,
                workers=1,
                wal=wal,
                cache_namespace=namespace,
            )
        return ServingStack(
            scheduler=scheduler,
            pool=pool,
            collection=overlay,
            wal=wal,
            replayed=0,
            descriptor=loaded.manifest.substrate,
            snapshot_path=str(self.snapshot),
        )


class PoolPruned(_Served):
    name = "pool_pruned_200k"
    slots = 6
    passes = 7

    def prepare(self) -> None:
        self.load()
        self.draw_queries(self.slots, 10, 16, salt=2)
        self.searches_per_pass = self.slots
        self.corpus = None

    def run_pass(self, tracer: Tracer) -> PassResult:
        scheduler = self.stack.scheduler
        # A pass must not answer from what the previous pass cached.
        scheduler.invalidate_cache()
        seconds, outputs = [], []
        for slot, query in enumerate(self.queries):
            request = self.request(query, f"s{slot}")
            with tracer.span("op", root=True):
                started = time.perf_counter()
                with tracer.span("service.answer"):
                    response = scheduler.answer(request)
                seconds.append(time.perf_counter() - started)
            outputs.append((response.error, _hits(response)))
        elapsed = np.asarray(seconds)
        return PassResult(elapsed, elapsed, outputs)

    def check(self, results: list[PassResult]) -> tuple[int, int]:
        checker = Checker(self.reload_corpus(), self.seed)
        same = passes_identical(results)
        failed = 0
        for slot, query in enumerate(self.queries):
            error, hits = results[0].outputs[slot]
            ok = same[slot] and error is None and checker.search_ok(
                query, hits, related=checker.family_of(self.bases[slot])
            )
            failed += not ok
        return self.slots, failed

    def answered(self, results: list[PassResult]) -> list[tuple]:
        return [
            (query, hits)
            for query, (_, hits) in zip(self.queries, results[0].outputs)
        ]


class ServiceRW(_Served):
    name = "service_rw_200k"
    slots = 3
    passes = 5
    rebuild_each_pass = True
    use_wal = True

    def prepare(self) -> None:
        corpus = self.load()
        self.draw_queries(self.slots, 10, 16, salt=3)
        variants = corpus.spec["variants"]
        self.ops = []
        for slot, base in enumerate(self.bases):
            kind = ("insert", "replace", "delete")[slot % 3]
            # replace rewrites a *sibling* variant of the queried family
            # into a near copy of the base set; delete removes the base
            # set itself, which the search would otherwise rank first.
            target = base
            if kind == "replace":
                target = base - base % variants + (base + 1) % variants
            self.ops.append({
                "kind": kind,
                "target": target,
                "name": f"bench-{kind}-{slot}",
                "tokens": respell(corpus, base, self.rng, swaps=2),
                "query": self.queries[slot],
            })
        self.searches_per_pass = self.slots
        self.corpus = None

    def mutate(self, op) -> int:
        scheduler = self.stack.scheduler
        if op["kind"] == "insert":
            return scheduler.insert_set(op["tokens"], name=op["name"])
        if op["kind"] == "replace":
            return scheduler.replace_set(op["target"], op["tokens"])
        return scheduler.delete_set(op["target"])

    def run_pass(self, tracer: Tracer) -> PassResult:
        latency, busy, outputs = [], [], []
        wal_path = self.stack.wal.path
        wal_before = wal_path.stat().st_size if wal_path.exists() else 0
        for slot, op in enumerate(self.ops):
            request = self.request(op["query"], f"s{slot}")
            with tracer.span("op", root=True):
                started = time.perf_counter()
                with tracer.span("service.mutate"):
                    new_id = self.mutate(op)
                if tracer.enabled:
                    # Traced only: pay the lazy hot swap here, under its
                    # own span, instead of inside the search.
                    with tracer.span("service.hot_swap"):
                        self.stack.pool.refresh()
                mutated = time.perf_counter()
                with tracer.span("service.answer"):
                    response = self.stack.scheduler.answer(request)
                done = time.perf_counter()
            latency.append(done - mutated)
            busy.append(done - started)
            outputs.append((new_id, response.error, _hits(response)))
        self.wal_bytes = wal_path.stat().st_size - wal_before
        return PassResult(np.asarray(latency), np.asarray(busy), outputs)

    def check(self, results: list[PassResult]) -> tuple[int, int]:
        """Mutation and search of a slot are one op each. After every
        mutation the model knows which ids are live: an inserted or
        replaced set must come back from the search that follows it, a
        deleted or replaced-away id must never come back."""
        checker = Checker(self.reload_corpus(), self.seed)
        same = passes_identical(results)
        failed = 0
        for slot, op in enumerate(self.ops):
            new_id, error, hits = results[0].outputs[slot]
            mutation_ok = same[slot]
            if op["kind"] == "delete":
                mutation_ok &= new_id == op["target"]
                checker.dead.add(op["target"])
            else:
                mutation_ok &= new_id >= checker.corpus.num_sets
                checker.overrides[new_id] = op["tokens"]
                if op["kind"] == "replace":
                    checker.dead.add(op["target"])
            returned = {h[0] for h in hits}
            search_ok = error is None and not (returned & checker.dead)
            if op["kind"] != "delete":
                search_ok &= new_id in returned
            search_ok = search_ok and checker.search_ok(
                op["query"], hits, related=checker.family_of(self.bases[slot])
            )
            failed += (not mutation_ok) + (not search_ok)
        self.inserted = checker.overrides
        return 2 * self.slots, failed

    def answered(self, results: list[PassResult]) -> list[tuple]:
        return [
            (op["query"], hits)
            for op, (_, _, hits) in zip(self.ops, results[0].outputs)
        ]


class _GatewayThread:
    """A ``GatewayServer`` on its own event loop in a background thread
    (the load generator keeps the main thread of the same process)."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self.loop = asyncio.new_event_loop()
        self.server = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="bench-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("gateway did not start")

    def _run(self) -> None:
        from repro.gateway import GatewayServer

        asyncio.set_event_loop(self.loop)

        async def start():
            self.server = GatewayServer(self.registry, port=0)
            await self.server.start()

        self.loop.run_until_complete(start())
        self._ready.set()
        self.loop.run_forever()

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        ).result(timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=60)
        if self._thread.is_alive():
            raise RuntimeError("gateway thread did not stop")
        self.loop.close()


class _Client:
    """One JSON-lines connection to the gateway."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class GatewayHot(_Served):
    name = "gateway_hot_200k"
    #: a slot is one window of WINDOW requests written then read back.
    slots = 250
    passes = 31
    probes = True
    WINDOW = 16
    DISTINCT = 8
    PROBE_REQUESTS = 2000

    def prepare(self) -> None:
        self.load()
        if self.smoke:
            self.slots, self.PROBE_REQUESTS = 50, 200
        self.draw_queries(self.DISTINCT, 10, 16, salt=4)
        self.lines = [
            json.dumps(
                {"id": f"q{i}", "query": sorted(q), "k": self.spec["k"]},
                separators=(",", ":"),
            ).encode("utf-8") + b"\n"
            for i, q in enumerate(self.queries)
        ]
        self.picks = self.rng.choice(
            self.DISTINCT,
            size=(self.slots, self.WINDOW),
            p=_zipf_weights(self.DISTINCT, 1.0),
        )
        self.windows = [
            b"".join(self.lines[pick] for pick in row)
            for row in self.picks.tolist()
        ]
        self.searches_per_pass = self.slots * self.WINDOW
        self.sent = self.mismatched = 0
        self.corpus = None

    def construct(self, tracer: Tracer) -> None:
        from repro.gateway import (
            Tenant, TenantQuota, TenantRegistry, TenantSpec,
        )

        spec = TenantSpec(
            name="bench",
            collection=str(self.snapshot),
            alpha=self.spec["alpha"],
            shards=SHARDS,
            workers=1,
        )
        if tracer.enabled:
            stack = self.build_stack(tracer, namespace=spec.name)
            cache = stack.scheduler.cache
            stack.scheduler = SchedulerProxy(stack.scheduler, tracer)
            tenant = Tenant(spec=spec, stack=stack, quota=TenantQuota())
            registry = TenantRegistry([tenant], cache=cache, max_inflight=2)
        else:
            registry = TenantRegistry.build(
                [spec], cache_size=CACHE_SIZE, max_inflight=2
            )
        self.registry = registry
        self.gateway = _GatewayThread(registry)
        self.client = _Client(self.gateway.server.port)
        warm = json.dumps({
            "id": "warmup", "query": sorted(self.warmup), "k": self.spec["k"],
        }).encode("utf-8") + b"\n"
        with tracer.span("warmup", root=True):
            self.roundtrip(warm)

    def result_cache(self):
        return self.registry.cache

    def roundtrip(self, line: bytes) -> bytes:
        self.client.sock.sendall(line)
        return self.client.reader.readline()

    def prefill(self, tracer: Tracer) -> None:
        """Untimed and untraced: compute every distinct query so that
        each later request is a cache hit, and learn the payload a
        direct ``scheduler.answer`` gives for it."""
        from repro.service import SearchRequest

        started = time.perf_counter()
        was_enabled, tracer.enabled = tracer.enabled, False
        scheduler = self.registry.get("bench").scheduler
        self.expected, self.direct = [], []
        for line in self.lines:
            self.roundtrip(line)
            response = scheduler.answer(
                SearchRequest.from_json(line.decode("utf-8"))
            )
            self.expected.append(response.to_json().encode("utf-8") + b"\n")
            self.direct.append((response.error, _hits(response)))
        tracer.enabled = was_enabled
        self.prefill_seconds = time.perf_counter() - started

    def fresh_connection(self) -> None:
        """The server keeps every finished search task of a connection
        until an op line arrives, so a connection's memory grows with
        the requests it has carried; each pass starts from a new one."""
        self.client.close()
        self.client = _Client(self.gateway.server.port)

    def note_bad(self, lines: list[bytes]) -> None:
        self.mismatched += len(lines)
        self.refused += sum(b'"rejected"' in line for line in lines)

    def run_pass(self, tracer: Tracer) -> PassResult:
        self.fresh_connection()
        sock, reader = self.client.sock, self.client.reader
        expected, window = self.expected, self.WINDOW
        arrivals = np.empty((self.slots, window))
        sent = np.empty(self.slots)
        bad = []
        clock = time.perf_counter
        for slot, payload in enumerate(self.windows):
            picks = self.picks[slot]
            sent[slot] = clock()
            sock.sendall(payload)
            for position in range(window):
                line = reader.readline()
                arrivals[slot, position] = clock()
                if line != expected[picks[position]]:
                    bad.append(line)
        self.sent += self.searches_per_pass
        self.note_bad(bad)
        latency = (arrivals - sent[:, None]).ravel()
        return PassResult(latency, arrivals[:, -1] - sent, [len(bad)])

    def measure_pass(self, tracer: Tracer) -> PassResult:
        """``PROBE_REQUESTS`` zipf picks with one request in flight: the
        shape spans can nest in (a window interleaves 16 requests)."""
        self.fresh_connection()
        picks = self.picks.ravel()[:self.PROBE_REQUESTS].tolist()
        seconds = np.empty(len(picks))
        bad = []
        for i, pick in enumerate(picks):
            with tracer.span("op", root=True):
                started = time.perf_counter()
                with tracer.span("gateway.roundtrip"):
                    line = self.roundtrip(self.lines[pick])
                seconds[i] = time.perf_counter() - started
            if line != self.expected[pick]:
                bad.append(line)
        self.sent += len(picks)
        self.note_bad(bad)
        return PassResult(seconds, seconds, [len(bad)])

    def codec_seconds(self) -> tuple[list[float], list[float]]:
        """Seconds of ``SearchRequest.from_json`` and
        ``SearchResponse.to_json`` on each hot payload (best of five)."""
        from repro.service import SearchRequest

        scheduler = self.registry.get("bench").scheduler
        parse, encode = [], []
        for line in self.lines:
            text = line.decode("utf-8")
            response = scheduler.answer(SearchRequest.from_json(text))
            best_parse = best_encode = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                SearchRequest.from_json(text)
                middle = time.perf_counter()
                response.to_json()
                done = time.perf_counter()
                best_parse = min(best_parse, middle - started)
                best_encode = min(best_encode, done - middle)
            parse.append(best_parse)
            encode.append(best_encode)
        return parse, encode

    def close(self) -> None:
        self.client.close()
        self.gateway.stop()
        self.gateway = self.registry = None

    def check(self, results: list[PassResult]) -> tuple[int, int]:
        """Every wire line was compared, as it arrived, with the payload
        of a direct ``scheduler.answer`` (a rejected, shed or error line
        cannot equal it); here that payload is checked like any other
        answer."""
        checker = Checker(self.reload_corpus(), self.seed)
        failed = self.mismatched
        for slot, query in enumerate(self.queries):
            error, hits = self.direct[slot]
            ok = error is None and checker.search_ok(
                query, hits, related=checker.family_of(self.bases[slot])
            )
            failed += not ok
        return self.sent + self.DISTINCT, failed

    def answered(self, results: list[PassResult]) -> list[tuple]:
        return [
            (query, hits)
            for query, (_, hits) in zip(self.queries, self.direct)
        ]


WORKLOADS = {
    cls.name: cls for cls in (EngineDense, PoolPruned, ServiceRW, GatewayHot)
}
