"""Tenant isolation: a multi-tenant gateway must be indistinguishable
from dedicated single-tenant servers.

Two guarantees under test, both over a randomized interleaved workload:

* **Result isolation** — every search and mutation answered through the
  gateway is bitwise-identical to the same per-tenant sequence replayed
  against an independent, dedicated serving stack over the same
  collection file.
* **Cache isolation** — the tenants share ONE ``ResultCache`` (pooled
  capacity), yet one tenant's mutations and explicit invalidations
  never touch the other's warm entries.
"""

import asyncio
import json
import random

import pytest

from repro.gateway import GatewayServer, TenantRegistry
from repro.service.bootstrap import build_serving_stack
from repro.service.protocol import control
from repro.service.request import SearchRequest

TOKENS = [
    "seattle", "portland", "oakland", "boston", "newyork", "chicago",
    "austin", "houston", "denver", "miami", "tampa", "fargo",
]


def make_collection(rng, n_sets):
    return {
        f"set{i}": sorted(
            rng.sample(TOKENS, rng.randint(2, 6))
        )
        for i in range(n_sets)
    }


def make_workload(rng, prefix, n_ops):
    """A deterministic mix of searches and mutations for one tenant."""
    ops = []
    for i in range(n_ops):
        roll = rng.random()
        if roll < 0.70:
            ops.append(
                {
                    "id": f"{prefix}-q{i}",
                    "query": sorted(rng.sample(TOKENS, rng.randint(1, 4))),
                    "k": rng.randint(1, 4),
                }
            )
        elif roll < 0.90:
            ops.append(
                {
                    "op": "insert",
                    "name": f"{prefix}-new{i}",
                    "tokens": sorted(rng.sample(TOKENS, rng.randint(2, 5))),
                }
            )
        else:
            ops.append(
                {
                    "op": "replace",
                    "name": f"set{rng.randint(0, 5)}",
                    "tokens": sorted(rng.sample(TOKENS, rng.randint(2, 5))),
                }
            )
    return ops


def strip_timing(obj):
    """Everything but the wall-clock field must match bitwise."""
    return {k: v for k, v in obj.items() if k != "seconds"}


@pytest.fixture()
def isolation_dir(tmp_path):
    rng = random.Random(20230217)
    (tmp_path / "gamma.json").write_text(
        json.dumps(make_collection(rng, 8))
    )
    (tmp_path / "delta.json").write_text(
        json.dumps(make_collection(rng, 8))
    )
    (tmp_path / "tenants.json").write_text(
        json.dumps(
            {
                "cache_size": 1024,
                "max_inflight": 4,
                "tenants": [
                    {"name": "gamma", "collection": "gamma.json",
                     "wal": "gamma.wal"},
                    {"name": "delta", "collection": "delta.json",
                     "wal": "delta.wal"},
                ],
            }
        )
    )
    return tmp_path


def test_two_tenants_bitwise_match_two_dedicated_servers(isolation_dir):
    rng = random.Random(42)
    workloads = {
        "gamma": make_workload(rng, "gamma", 40),
        "delta": make_workload(rng, "delta", 40),
    }

    async def drive_gateway():
        registry = TenantRegistry.from_config(
            isolation_dir / "tenants.json"
        )
        server = GatewayServer(registry, port=0)
        await server.start()
        serve_task = asyncio.create_task(server.serve_until_shutdown())
        conns = {}
        for name in workloads:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                (json.dumps({"op": "hello", "tenant": name}) + "\n").encode()
            )
            await writer.drain()
            assert json.loads(await reader.readline())["ok"] is True
            conns[name] = (reader, writer)
        responses = {name: [] for name in workloads}
        # Interleave the tenants line by line — the shared-cache,
        # shared-admission path the isolation claim is about.
        for step in range(len(workloads["gamma"])):
            for name in ("gamma", "delta"):
                reader, writer = conns[name]
                writer.write(
                    (json.dumps(workloads[name][step]) + "\n").encode()
                )
                await writer.drain()
                responses[name].append(
                    json.loads(
                        await asyncio.wait_for(reader.readline(), timeout=10)
                    )
                )
        shared_cache = registry.cache
        cache_len = len(shared_cache)
        for _, writer in conns.values():
            writer.close()
        server.request_shutdown()
        await serve_task
        return responses, cache_len

    via_gateway, cache_len = asyncio.run(drive_gateway())
    assert cache_len > 0  # the shared cache actually got exercised

    # Replay each tenant's exact sequence against a dedicated stack.
    for name, workload in workloads.items():
        stack = build_serving_stack(
            str(isolation_dir / f"{name}.json"),
            wal_path=str(isolation_dir / f"{name}-solo.wal"),
        )
        try:
            for sent, got in zip(workload, via_gateway[name]):
                if "op" in sent:
                    expected = control(stack.scheduler, sent)
                else:
                    expected = stack.scheduler.answer(
                        SearchRequest.from_obj(sent)
                    ).to_obj()
                assert strip_timing(got) == strip_timing(expected), (
                    name, sent,
                )
        finally:
            stack.close()


def test_one_tenants_mutations_never_evict_the_others_cache(
    isolation_dir,
):
    async def scenario():
        registry = TenantRegistry.from_config(
            isolation_dir / "tenants.json"
        )
        server = GatewayServer(registry, port=0)
        await server.start()
        serve_task = asyncio.create_task(server.serve_until_shutdown())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )

        async def roundtrip(obj):
            writer.write((json.dumps(obj) + "\n").encode())
            await writer.drain()
            return json.loads(
                await asyncio.wait_for(reader.readline(), timeout=10)
            )

        query = {
            "id": "warm", "query": ["seattle", "boston"], "k": 2,
            "tenant": "delta",
        }
        cold = await roundtrip(query)
        warm = await roundtrip(query)
        # Tenant gamma mutates AND explicitly invalidates its cache.
        mutate = await roundtrip(
            {"op": "insert", "name": "noise",
             "tokens": ["denver", "fargo"], "tenant": "gamma"}
        )
        invalidate = await roundtrip(
            {"op": "invalidate", "tenant": "gamma"}
        )
        still_warm = await roundtrip(query)
        # And delta's own mutation *does* moot its warm entry.
        await roundtrip(
            {"op": "insert", "name": "own",
             "tokens": ["miami"], "tenant": "delta"}
        )
        own_cold = await roundtrip(query)
        hits = registry.get("delta").metrics.cache_hits
        writer.close()
        server.request_shutdown()
        await serve_task
        return cold, warm, mutate, invalidate, still_warm, own_cold, hits

    cold, warm, mutate, invalidate, still_warm, own_cold, hits = (
        asyncio.run(scenario())
    )
    assert cold["cached"] is False
    assert warm["cached"] is True
    assert mutate["op"] == "insert"
    assert invalidate == {"invalidated": 0}  # gamma had no warm entries
    # Gamma's mutation + invalidation left delta's entry untouched.
    assert still_warm["cached"] is True
    assert still_warm["results"] == warm["results"]
    # Delta's own mutation bumped its version: the old entry is moot.
    assert own_cold["cached"] is False
    assert hits == 2
