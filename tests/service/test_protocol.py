"""The wire protocol module, and one hostile-input table driven through
every transport built on it: ``serve_lines``, ``run_batch``, a live
gateway TCP socket and an HTTP POST."""

import asyncio
import io
import json

import pytest

from repro.service import (
    EnginePool,
    QueryScheduler,
    ResultCache,
    SearchRequest,
    run_batch,
    serve_lines,
)
from repro.service.bootstrap import build_serving_stack
from repro.service.protocol import (
    BLANK,
    CONTROL_OPS,
    MALFORMED,
    MAX_LINE_BYTES,
    MUTATION_OPS,
    OP,
    SEARCH,
    control,
    decode,
    encode,
)
from tests.gateway import test_server as _wire
from tests.gateway.test_server import (
    Client,
    gateway_dir,  # noqa: F401 — fixture reuse
    run_gateway_scenario,
)

# Referenced through the module so pytest does not re-collect the
# borrowed test class here.
http_exchange = _wire.TestHttpAdapter.http_exchange


def padded_array(total: int) -> bytes:
    """A valid bare-array line of exactly ``total`` bytes."""
    return b'["a"' + b" " * (total - 5) + b"]"


class TestDecode:
    @pytest.mark.parametrize(
        "raw", ["", "  \n", b"\n", "# note", b"  # note\n", "#"]
    )
    def test_blank_and_comment_lines_need_no_answer(self, raw):
        assert decode(raw) == (BLANK, None)

    @pytest.mark.parametrize("raw", ['["a", "b"]\n', b' ["a", "b"] '])
    def test_bare_array_is_search_shorthand(self, raw):
        assert decode(raw) == (SEARCH, {"query": ["a", "b"]})

    def test_op_must_be_a_string_to_be_a_control_line(self):
        assert decode('{"op": "metrics"}') == (OP, {"op": "metrics"})
        kind, value = decode(b'{"op": 3, "query": ["a"]}')
        assert kind is SEARCH and value["op"] == 3

    @pytest.mark.parametrize("raw", ["42", b'"text"', "null", "true"])
    def test_non_object_is_malformed(self, raw):
        kind, reply = decode(raw)
        assert kind is MALFORMED
        assert reply.to_obj() == {
            "id": "parse",
            "error": "request must be a JSON object or token array",
        }

    @pytest.mark.parametrize(
        "raw",
        [
            "{broken",
            b'{"query": ["a\xff"]}',  # invalid UTF-8
            b"\xfe\xff",
            "[" * 30_000,  # deeper than the JSON scanner recurses
            b"[" * 30_000,
        ],
    )
    def test_undecodable_lines_are_parse_errors_not_exceptions(self, raw):
        kind, reply = decode(raw)
        assert kind is MALFORMED
        assert reply.request_id == "parse"
        assert reply.error.startswith("bad request JSON: ")

    def test_line_size_limit_is_inclusive(self):
        at_limit = padded_array(MAX_LINE_BYTES)
        assert len(at_limit) == MAX_LINE_BYTES
        assert decode(at_limit) == (SEARCH, {"query": ["a"]})
        kind, reply = decode(padded_array(MAX_LINE_BYTES + 1))
        assert kind is MALFORMED
        assert reply.to_obj() == {
            "id": "parse",
            "error": f"line exceeds {MAX_LINE_BYTES} bytes",
        }


class TestControl:
    @pytest.fixture()
    def scheduler(self, tiny_opendata):
        pool = EnginePool(
            tiny_opendata.collection,
            tiny_opendata.index,
            tiny_opendata.sim,
            alpha=0.8,
        )
        with QueryScheduler(pool, cache=ResultCache(8)) as active:
            yield active

    @pytest.mark.parametrize("op", sorted(CONTROL_OPS))
    def test_every_op_answers_a_dict(self, op, tiny_opendata, scheduler):
        tokens = sorted(tiny_opendata.collection[0])
        well_formed = {
            "op": op, "query": tokens, "name": "fresh", "tokens": tokens,
        }
        malformed = {
            "op": op, "query": 7, "name": 5, "tokens": "no", "set_id": "x",
        }
        for payload in (well_formed, malformed):
            reply = control(scheduler, payload)
            assert isinstance(reply, dict)
            assert json.loads(encode(reply)) == reply
        if op == "explain" or op in MUTATION_OPS:  # ops that read fields
            assert control(scheduler, malformed)["op"] == op

    def test_unknown_op_names_the_op(self, scheduler):
        assert control(scheduler, {"op": "bogus"}) == {
            "error": "unknown op: bogus", "op": "bogus",
        }

    def test_prometheus_counters_stay_monotone_across_scrapes(
        self, tiny_opendata, scheduler
    ):
        """The registry hangs off the scheduler's metrics, so a second
        scrape projects into the same counters."""
        query = tiny_opendata.collection[0]
        scheduler.answer(SearchRequest(query=query, k=1))
        first = control(scheduler, {"op": "prometheus"})["prometheus"]
        scheduler.answer(SearchRequest(query=query, k=1))
        second = control(scheduler, {"op": "prometheus"})["prometheus"]
        assert 'repro_requests_total{tenant="default"} 1' in first
        assert 'repro_requests_total{tenant="default"} 2' in second


GOOD = {"id": "ok", "tenant": "alpha", "query": ["boston"], "k": 1}
GOOD_LINE = json.dumps(GOOD).encode()
PARSE_ERROR = '{"id":"parse","error":"bad request JSON: '

#: raw line -> what its reply line starts with (``run_batch`` labels
#: failures ``line-1`` where the streaming transports say ``parse``).
HOSTILE = {
    "invalid-utf8": (b'{"query": ["a\xff"]}', PARSE_ERROR),
    "nested-30k": (b"[" * 30_000, PARSE_ERROR),
    "broken-json": (b"{broken", PARSE_ERROR),
    "non-object": (
        b"42", '{"id":"parse","error":"request must be a JSON object',
    ),
    "no-query": (b'{"k": 3}', '{"id":"parse","error":"request needs a'),
    "query-over-64KiB": (
        json.dumps(
            {
                "id": "big",
                "tenant": "alpha",
                "query": ["seattle", "portland", "oakland"] * 3_000,
                "k": 1,
            }
        ).encode(),
        '{"id":"big","results":[{"set_id":',
    ),
}


def primed_answer(scheduler) -> str:
    """The good request's reply once it is a cache hit — the bytes every
    later answer to it must equal."""
    request = SearchRequest.from_obj(GOOD)
    scheduler.answer(request)
    return scheduler.answer(request).to_json()


@pytest.mark.parametrize("case", sorted(HOSTILE))
class TestEveryTransport:
    """A structured reply for the bad line, and the valid search after
    it answered as if nothing had happened."""

    @pytest.fixture()
    def scheduler(self, gateway_dir):  # noqa: F811
        stack = build_serving_stack(str(gateway_dir / "alpha.json"))
        yield stack.scheduler
        stack.close()

    def test_serve_lines(self, case, scheduler):
        raw, prefix = HOSTILE[case]
        expected = primed_answer(scheduler)
        out = io.StringIO()
        serve_lines(
            scheduler, io.BytesIO(raw + b"\n" + GOOD_LINE + b"\n"), out
        )
        bad, good = out.getvalue().splitlines()
        assert bad.startswith(prefix)
        assert good == expected

    def test_run_batch(self, case, scheduler):
        raw, prefix = HOSTILE[case]
        expected = primed_answer(scheduler)
        bad, good = run_batch(scheduler, [raw + b"\n", GOOD_LINE])
        assert bad.to_json().startswith(
            prefix.replace('"id":"parse"', '"id":"line-1"')
        )
        assert good.to_json() == expected

    def test_gateway_tcp(self, case, gateway_dir):  # noqa: F811
        raw, prefix = HOSTILE[case]

        async def scenario(server):
            expected = primed_answer(server.registry.get("alpha").scheduler)
            # The default 64 KiB client-side limit is the bug under test.
            client = Client(
                *await asyncio.open_connection(
                    "127.0.0.1", server.port, limit=MAX_LINE_BYTES
                )
            )
            await client.send_raw(raw + b"\n" + GOOD_LINE + b"\n")
            bad = await asyncio.wait_for(client.reader.readline(), 10)
            good = await asyncio.wait_for(client.reader.readline(), 10)
            await client.close()
            return expected, bad.decode(), good.decode()

        expected, bad, good = run_gateway_scenario(gateway_dir, scenario)
        assert bad.startswith(prefix)
        assert good == expected + "\n"

    def test_gateway_http(self, case, gateway_dir):  # noqa: F811
        raw, prefix = HOSTILE[case]
        body = b"# a comment is skipped here too\n" + raw + b"\n" + GOOD_LINE

        async def scenario(server):
            expected = primed_answer(server.registry.get("alpha").scheduler)
            reply = await http_exchange(
                server.port,
                b"POST /tenant/alpha HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            return expected, reply

        expected, (status, _, text) = run_gateway_scenario(
            gateway_dir, scenario
        )
        assert status == 200
        bad, good = text.splitlines()
        assert bad.startswith(prefix)
        assert good == expected
