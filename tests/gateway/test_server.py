"""End-to-end tests for the gateway server over real sockets.

Each test builds a registry from temp collections, runs the asyncio
server in-process via ``asyncio.run``, and speaks the wire protocol
through ``asyncio.open_connection`` — no pytest-asyncio required.
"""

import asyncio
import json

import pytest

from repro.gateway import GatewayServer, TenantRegistry
from repro.service.bootstrap import build_serving_stack
from repro.service.request import SearchRequest

ALPHA_SETS = {
    "west": ["seattle", "portland", "oakland"],
    "east": ["boston", "newyork"],
    "mix": ["seattle", "boston", "chicago"],
}
BETA_SETS = {
    "south": ["austin", "houston", "dallas"],
    "coast": ["miami", "tampa"],
}


@pytest.fixture()
def gateway_dir(tmp_path):
    (tmp_path / "alpha.json").write_text(json.dumps(ALPHA_SETS))
    (tmp_path / "beta.json").write_text(json.dumps(BETA_SETS))
    (tmp_path / "tenants.json").write_text(
        json.dumps(
            {
                "cache_size": 128,
                "max_inflight": 4,
                "tenants": [
                    {
                        "name": "alpha",
                        "collection": "alpha.json",
                        "wal": "alpha.wal",
                    },
                    {
                        "name": "beta",
                        "collection": "beta.json",
                        "auth_token": "s3cret",
                    },
                ],
            }
        )
    )
    return tmp_path


class Client:
    """One JSON-lines connection with request/response helpers."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def send(self, obj) -> None:
        self.writer.write((json.dumps(obj) + "\n").encode())
        await self.writer.drain()

    async def send_raw(self, raw: bytes) -> None:
        self.writer.write(raw)
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=10)
        assert line, "connection closed unexpectedly"
        return json.loads(line)

    async def roundtrip(self, obj) -> dict:
        await self.send(obj)
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def run_gateway_scenario(gateway_dir, scenario, **registry_overrides):
    """Start a gateway on a free port, run ``scenario(server)``, shut
    down gracefully; returns the scenario's result."""

    async def main():
        config = json.loads((gateway_dir / "tenants.json").read_text())
        config.update(registry_overrides)
        registry = TenantRegistry.from_config(
            config, base_dir=gateway_dir
        )
        server = GatewayServer(registry, port=0)
        await server.start()
        serve_task = asyncio.create_task(server.serve_until_shutdown())
        try:
            return await scenario(server)
        finally:
            server.request_shutdown()
            await serve_task

    return asyncio.run(main())


class TestWireProtocol:
    def test_hello_binds_and_search_matches_direct_scheduler(
        self, gateway_dir
    ):
        async def scenario(server):
            client = await Client.connect(server.port)
            assert await client.roundtrip(
                {"op": "hello", "tenant": "alpha"}
            ) == {"ok": True, "tenant": "alpha"}
            response = await client.roundtrip(
                {"id": "q1", "query": ["seattle", "boston"], "k": 3}
            )
            await client.close()
            return response

        response = run_gateway_scenario(gateway_dir, scenario)
        assert response["id"] == "q1"
        # Bitwise-identical to the direct (no-gateway) scheduler path
        # over the same collection and flags.
        direct = build_serving_stack(str(gateway_dir / "alpha.json"))
        try:
            expected = direct.scheduler.answer(
                SearchRequest.from_obj(
                    {"id": "q1", "query": ["seattle", "boston"], "k": 3}
                )
            ).to_obj()
        finally:
            direct.close()
        assert response["results"] == expected["results"]

    def test_per_line_tenant_field_and_unknown_tenant(self, gateway_dir):
        async def scenario(server):
            client = await Client.connect(server.port)
            good = await client.roundtrip(
                {"id": "a", "query": ["seattle"], "tenant": "alpha"}
            )
            bad = await client.roundtrip(
                {"id": "b", "query": ["x"], "tenant": "nope"}
            )
            unbound = await client.roundtrip({"id": "c", "query": ["x"]})
            await client.close()
            return good, bad, unbound

        good, bad, unbound = run_gateway_scenario(gateway_dir, scenario)
        assert good["results"]
        assert "unknown tenant 'nope'" in bad["error"]
        assert "alpha" in bad["error"]  # names the configured tenants
        assert "tenant required" in unbound["error"]

    def test_auth_token_gates_a_protected_tenant(self, gateway_dir):
        async def scenario(server):
            anon = await Client.connect(server.port)
            denied_hello = await anon.roundtrip(
                {"op": "hello", "tenant": "beta"}
            )
            denied_search = await anon.roundtrip(
                {"id": "q", "query": ["austin"], "tenant": "beta"}
            )
            await anon.close()
            authed = await Client.connect(server.port)
            ok = await authed.roundtrip(
                {"op": "hello", "tenant": "beta", "token": "s3cret"}
            )
            served = await authed.roundtrip(
                {"id": "q", "query": ["austin"], "k": 1}
            )
            rejected = server.registry.get("beta").metrics.rejected
            await authed.close()
            return denied_hello, denied_search, ok, served, rejected

        denied_hello, denied_search, ok, served, rejected = (
            run_gateway_scenario(gateway_dir, scenario)
        )
        assert denied_hello["auth"] is False
        assert "authentication failed" in denied_search["error"]
        assert ok == {"ok": True, "tenant": "beta"}
        assert served["results"][0]["name"] == "south"
        assert rejected == 2

    def test_malformed_json_and_unknown_op_keep_the_connection(
        self, gateway_dir
    ):
        async def scenario(server):
            client = await Client.connect(server.port)
            await client.roundtrip({"op": "hello", "tenant": "alpha"})
            await client.send_raw(b"{broken\n")
            bad_json = await client.recv()
            await client.send_raw(
                b'{"query": ["a\xff"]}\n' + b"[" * 30_000 + b"\n"
            )
            undecodable = [await client.recv(), await client.recv()]
            bad_op = await client.roundtrip({"op": "explode"})
            bad_request = await client.roundtrip({"k": 3})
            alive = await client.roundtrip(
                {"id": "still-here", "query": ["boston"], "k": 1}
            )
            await client.close()
            return bad_json, undecodable, bad_op, bad_request, alive

        bad_json, undecodable, bad_op, bad_request, alive = (
            run_gateway_scenario(gateway_dir, scenario)
        )
        assert "bad request JSON" in bad_json["error"]
        for reply in undecodable:  # invalid UTF-8, 30k-deep nesting
            assert reply["id"] == "parse"
            assert reply["error"].startswith("bad request JSON: ")
        assert bad_op == {"error": "unknown op: explode", "op": "explode"}
        assert "error" in bad_request
        assert alive["id"] == "still-here"
        assert alive["results"]

    def test_over_long_line_is_answered_in_order_then_closes(
        self, gateway_dir
    ):
        """The one error that ends a connection: the tail of an over-long
        line cannot be told from the next request."""
        from repro.service.protocol import MAX_LINE_BYTES

        async def scenario(server):
            client = await Client.connect(server.port)
            await client.send({"id": "before", "tenant": "alpha",
                               "query": ["boston"], "k": 1})
            await client.send_raw(
                b'["a"' + b" " * MAX_LINE_BYTES + b"]\n"
                b'{"id": "after", "tenant": "alpha", "query": ["boston"]}\n'
            )
            replies = []
            try:
                while line := await asyncio.wait_for(
                    client.reader.readline(), timeout=10
                ):
                    replies.append(json.loads(line))
            except ConnectionResetError:
                pass  # closed with our unread tail still in flight
            await client.close()
            return replies

        before, too_long = run_gateway_scenario(gateway_dir, scenario)
        assert before["id"] == "before" and before["results"]
        assert too_long == {
            "id": "parse", "error": f"line exceeds {MAX_LINE_BYTES} bytes",
        }

    def test_quota_exhaustion_rejects_with_retry_after(self, gateway_dir):
        config = json.loads((gateway_dir / "tenants.json").read_text())
        config["tenants"][0]["qps"] = 1
        config["tenants"][0]["burst"] = 2
        (gateway_dir / "tenants.json").write_text(json.dumps(config))

        async def scenario(server):
            client = await Client.connect(server.port)
            await client.roundtrip({"op": "hello", "tenant": "alpha"})
            responses = []
            for i in range(5):
                responses.append(
                    await client.roundtrip(
                        {"id": f"q{i}", "query": ["seattle"], "k": 1}
                    )
                )
            stats = await client.roundtrip({"op": "stats"})
            await client.close()
            return responses, stats

        responses, stats = run_gateway_scenario(gateway_dir, scenario)
        admitted = [r for r in responses if "results" in r]
        rejections = [r for r in responses if r.get("rejected")]
        # burst=2 admits the first two back-to-back requests; the rest
        # are rejected with an honest retry hint.
        assert len(admitted) >= 2
        assert rejections, responses
        for rejection in rejections:
            assert rejection["retry_after_seconds"] > 0.0
            assert "quota exhausted" in rejection["error"]
            assert rejection["id"].startswith("q")
        row = stats["tenants"]["alpha"]
        assert row["rejected"] == len(rejections)
        assert stats["totals"]["rejected"] == len(rejections)

    def test_mutations_apply_with_wal_and_respect_mutation_quota(
        self, gateway_dir
    ):
        config = json.loads((gateway_dir / "tenants.json").read_text())
        config["tenants"][0]["mutations_per_second"] = 1
        config["tenants"][0]["mutation_burst"] = 1
        (gateway_dir / "tenants.json").write_text(json.dumps(config))

        async def scenario(server):
            client = await Client.connect(server.port)
            await client.roundtrip({"op": "hello", "tenant": "alpha"})
            ack = await client.roundtrip(
                {"op": "insert", "name": "fresh",
                 "tokens": ["seattle", "reno"]}
            )
            found = await client.roundtrip(
                {"id": "after", "query": ["seattle", "reno"], "k": 1}
            )
            over_quota = await client.roundtrip(
                {"op": "insert", "name": "again", "tokens": ["x"]}
            )
            await client.close()
            return ack, found, over_quota

        ack, found, over_quota = run_gateway_scenario(gateway_dir, scenario)
        assert ack["op"] == "insert"
        assert isinstance(ack["set_id"], int)
        assert found["results"][0]["name"] == "fresh"
        assert over_quota["rejected"] is True
        assert over_quota["retry_after_seconds"] > 0.0
        # The WAL made the mutation durable through the graceful drain.
        wal_text = (gateway_dir / "alpha.wal").read_text()
        assert wal_text.count("\n") == 1 and "fresh" in wal_text

    def test_metrics_op_is_tenant_scoped_stats_is_fleet_wide(
        self, gateway_dir
    ):
        async def scenario(server):
            client = await Client.connect(server.port)
            await client.roundtrip(
                {"id": "q", "query": ["seattle"], "tenant": "alpha"}
            )
            metrics = await client.roundtrip(
                {"op": "metrics", "tenant": "alpha"}
            )
            stats = await client.roundtrip({"op": "stats"})
            await client.close()
            return metrics, stats

        metrics, stats = run_gateway_scenario(gateway_dir, scenario)
        assert metrics["metrics"]["completed"] == 1
        assert stats["backend"] == "gateway"
        assert sorted(stats["tenants"]) == ["alpha", "beta"]
        assert stats["totals"]["completed"] == 1
        assert stats["gateway"]["max_inflight"] == 4
        assert stats["gateway"]["connections"] >= 1

    def test_responses_come_back_in_arrival_order(self, gateway_dir):
        async def scenario(server):
            client = await Client.connect(server.port)
            await client.roundtrip({"op": "hello", "tenant": "alpha"})
            # Fire a burst without awaiting; order must be preserved.
            for i in range(10):
                await client.send(
                    {"id": f"q{i}", "query": ["seattle", "boston"], "k": 2}
                )
            ids = [(await client.recv())["id"] for i in range(10)]
            await client.close()
            return ids

        ids = run_gateway_scenario(gateway_dir, scenario)
        assert ids == [f"q{i}" for i in range(10)]

    def test_search_only_connection_retains_only_inflight_tasks(
        self, gateway_dir
    ):
        """No op line ever drains this connection, so finished search
        tasks must drop themselves: what the connection holds is bounded
        by the in-flight window, not by the requests served."""
        window, rounds = 4, 16

        async def scenario(server):
            client = await Client.connect(server.port)
            for round_no in range(rounds):
                for slot in range(window):
                    await client.send(
                        {"id": f"r{round_no}.{slot}", "tenant": "alpha",
                         "query": ["seattle", "boston"], "k": 2}
                    )
                for _ in range(window):
                    assert "results" in await client.recv()
            (conn,) = server._connections
            retained = len(conn.searches)
            await client.close()
            return retained

        assert run_gateway_scenario(gateway_dir, scenario) <= window

    def test_graceful_drain_answers_admitted_work(self, gateway_dir):
        async def scenario(server):
            client = await Client.connect(server.port)
            await client.roundtrip({"op": "hello", "tenant": "alpha"})
            for i in range(6):
                await client.send(
                    {"id": f"d{i}", "query": ["seattle"], "k": 1}
                )
            first = await client.recv()  # at least one is in flight
            # Shutdown lands while the rest of the burst is in flight.
            server.request_shutdown()
            responses = [first]
            while True:
                line = await asyncio.wait_for(
                    client.reader.readline(), timeout=10
                )
                if not line:
                    break  # drained: the server closed the connection
                responses.append(json.loads(line))
            await client.close()
            return responses

        responses = run_gateway_scenario(gateway_dir, scenario)
        # Everything the loop accepted is answered, in arrival order —
        # either with results or a structured shed rejection; nothing
        # vanishes and nothing hangs.
        ids = [r["id"] for r in responses]
        assert ids == [f"d{i}" for i in range(len(responses))]
        assert "results" in responses[0]
        for response in responses:
            assert "results" in response or (
                response.get("shed")
                and response["retry_after_seconds"] > 0.0
            )


class TestHttpAdapter:
    @staticmethod
    async def http_exchange(port, raw: bytes):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(raw)
        await writer.drain()
        payload = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        head, _, body = payload.partition(b"\r\n\r\n")
        head_lines = head.decode("latin-1").split("\r\n")
        status = int(head_lines[0].split()[1])
        headers = {}
        for line in head_lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, body.decode()

    def test_post_search_and_get_stats(self, gateway_dir):
        async def scenario(server):
            body = json.dumps(
                {"id": "h1", "query": ["portland", "oakland"], "k": 1}
            ).encode()
            post = await self.http_exchange(
                server.port,
                b"POST /tenant/alpha HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            stats = await self.http_exchange(
                server.port, b"GET /stats HTTP/1.1\r\n\r\n"
            )
            missing = await self.http_exchange(
                server.port, b"GET /nope HTTP/1.1\r\n\r\n"
            )
            put = await self.http_exchange(
                server.port, b"PUT / HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            )
            return post, stats, missing, put

        post, stats, missing, put = run_gateway_scenario(
            gateway_dir, scenario
        )
        status, headers, body = post
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert json.loads(body)["results"][0]["name"] == "west"
        assert stats[0] == 200
        assert json.loads(stats[2])["backend"] == "gateway"
        assert missing[0] == 404
        assert put[0] == 405

    def test_content_length_is_validated_before_the_body_is_read(
        self, gateway_dir
    ):
        from repro.service.protocol import MAX_LINE_BYTES

        async def scenario(server):
            return [
                await self.http_exchange(
                    server.port,
                    b"POST /tenant/alpha HTTP/1.1\r\n"
                    b"Content-Length: %s\r\n\r\n" % value,
                )
                for value in (b"-5", b"five", b"%d" % (MAX_LINE_BYTES + 1))
            ]

        negative, non_integer, oversize = run_gateway_scenario(
            gateway_dir, scenario
        )
        for status, _, body in (negative, non_integer):
            assert status == 400
            assert json.loads(body) == {"error": "bad Content-Length"}
        assert oversize[0] == 413
        assert json.loads(oversize[2]) == {
            "error": f"body exceeds {MAX_LINE_BYTES} bytes"
        }

    def test_bearer_token_and_tenant_header(self, gateway_dir):
        async def scenario(server):
            body = json.dumps({"id": "b", "query": ["austin"]}).encode()
            denied = await self.http_exchange(
                server.port,
                b"POST /tenant/beta HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            allowed = await self.http_exchange(
                server.port,
                b"POST / HTTP/1.1\r\n"
                b"X-Repro-Tenant: beta\r\n"
                b"Authorization: Bearer s3cret\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            return denied, allowed

        denied, allowed = run_gateway_scenario(gateway_dir, scenario)
        assert denied[0] == 401
        assert allowed[0] == 200
        assert json.loads(allowed[2])["results"]

    def test_quota_rejection_maps_to_429_with_retry_after(
        self, gateway_dir
    ):
        config = json.loads((gateway_dir / "tenants.json").read_text())
        config["tenants"][0]["qps"] = 1
        config["tenants"][0]["burst"] = 1
        (gateway_dir / "tenants.json").write_text(json.dumps(config))

        async def scenario(server):
            body = json.dumps({"id": "h", "query": ["seattle"]}).encode()
            raw = (
                b"POST /tenant/alpha HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            first = await self.http_exchange(server.port, raw)
            second = await self.http_exchange(server.port, raw)
            return first, second

        first, second = run_gateway_scenario(gateway_dir, scenario)
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        decoded = json.loads(body)
        assert decoded["rejected"] is True
        assert decoded["retry_after_seconds"] > 0.0
