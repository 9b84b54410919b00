"""The asyncio network front end: TCP JSON-lines + a minimal HTTP POST
adapter, multi-tenant, quota-checked, admission-controlled.

Lines, ops and refusal shapes are those of
:mod:`repro.service.protocol`; this transport adds tenants::

    {"op": "hello", "tenant": "alpha", "token": "s3cret"}
                      -> {"ok": true, "tenant": "alpha"}  (binds the
                         connection; optional when one tenant exists)
    {"op": "stats"}   -> the gateway rollup (per-tenant + totals)

Every other op, and every search, addresses the bound tenant or the one
a ``"tenant": "name"`` field on the line names (re-authenticated
against the connection's token). Searches (``explain`` is one) and
mutations are charged to the tenant's quota — refused with
``"rejected": true`` and ``"retry_after_seconds"`` — and pass its
admission queue, which sheds with ``"shed": true`` as well.

Requests on one connection are answered **in arrival order**; searches
execute concurrently, and an op waits for the connection's in-flight
searches first, so earlier requests observe the pre-mutation state —
the same ordering contract ``serve_lines`` keeps on stdin. A bad line
is answered and the connection kept; only a line over
``MAX_LINE_BYTES`` closes it, after its error reply, because the rest
of that line cannot be told from the next request.

The HTTP/1.1 adapter shares the listener: a request whose first bytes
look like an HTTP method is parsed as ``POST /`` (body = request lines;
tenant from ``X-Repro-Tenant`` or the ``/tenant/<name>`` path; token
from ``Authorization: Bearer``; ``X-Trace-Id`` becomes each line's
``trace_id``) or ``GET /stats``, ``/metrics``, ``/healthz``,
``/readyz``, ``/slo`` (``docs/gateway.md``). Status is ``200`` with one
JSON response per line, except: a single rejected request ``429`` with
``Retry-After``; a negative or non-integer ``Content-Length`` ``400``,
one over ``MAX_LINE_BYTES`` ``413``; failed auth ``401``; an unknown
tenant or path ``404``; another method ``405``; not ready ``503``.
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import GatewayError, ReproError
from repro.gateway.admission import AdmissionController, AdmissionShed
from repro.gateway.auth import AuthPolicy, policy_from_tokens
from repro.gateway.metrics import gateway_rollup
from repro.gateway.quota import MUTATION, SEARCH
from repro.gateway.tenants import Tenant, TenantRegistry
from repro.obs import PromRegistry, get_tracer
from repro.obs.adapters import cluster_to_registry, gateway_to_registry
from repro.service import protocol
from repro.service.protocol import (
    BLANK,
    MALFORMED,
    MAX_LINE_BYTES,
    OP,
    error_reply,
)
from repro.service.request import SearchResponse

#: HTTP methods the adapter recognizes on a fresh connection.
_HTTP_METHODS = (b"POST ", b"GET ", b"PUT ", b"HEAD ")

#: What a handler hands the writer: encoded once, at the socket.
Reply = dict | SearchResponse


class _Refused(Exception):
    """A request that gets ``reply`` instead of service; over HTTP,
    when it refuses the whole exchange, with ``status``."""

    def __init__(self, message: str, status: int = 404, **extra: Any):
        super().__init__(message)
        self.status = status
        self.reply = error_reply(message, **extra)


async def _readline(reader: asyncio.StreamReader) -> bytes | None:
    """One line (``b""`` at EOF), or ``None`` when it overran
    ``MAX_LINE_BYTES`` — the stream is then out of step for good."""
    try:
        return await reader.readline()
    except ValueError:
        return None


@dataclass(eq=False)  # identity semantics: connections live in sets
class _Connection:
    """Per-connection state: the bound tenant, the presented token, and
    the ordered-response machinery."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    tenant: Tenant | None = None
    token: str | None = None
    #: Replies in arrival order: a task still computing one, or one
    #: that was ready on arrival; ``None`` ends the writer.
    out_queue: "asyncio.Queue[asyncio.Task | Reply | None]" = field(
        default_factory=asyncio.Queue
    )
    #: In-flight searches only: each task removes itself when it
    #: finishes, so a long-lived search-only connection stays bounded.
    searches: set[asyncio.Task] = field(default_factory=set)

    async def drain_searches(self) -> None:
        """Wait for this connection's in-flight searches (the barrier a
        mutation op crosses so earlier requests see the old state)."""
        if self.searches:
            await asyncio.wait(self.searches)


class GatewayServer:
    """The asyncio front end over a :class:`TenantRegistry`."""

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        auth: AuthPolicy | None = None,
        executor_workers: int | None = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.auth = auth or policy_from_tokens(registry.auth_tokens())
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers or registry.max_inflight,
            thread_name_prefix="repro-gateway",
        )
        self.admission = AdmissionController(
            max_inflight=registry.max_inflight, executor=self._executor
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._shutdown_requested = asyncio.Event()
        self._started = time.monotonic()
        # One registry for the server's lifetime: Prometheus counters
        # must be monotone across scrapes, and the set_at_least
        # projection in the adapters guarantees that only against a
        # long-lived registry.
        self._prom = PromRegistry()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; ``self.port`` carries the real port after
        a ``port=0`` bind (tests and smoke runs)."""
        try:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.host,
                port=self.port,
                limit=MAX_LINE_BYTES,
            )
        except OSError as exc:
            raise GatewayError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from exc
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin the graceful drain (signal-handler safe: just an event)."""
        self._shutdown_requested.set()

    async def serve_until_shutdown(self, *, install_signals: bool = False):
        """Serve until :meth:`request_shutdown`, then drain and close."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix loop: rely on KeyboardInterrupt
        try:
            await self._shutdown_requested.wait()
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish every admitted job and
        flush its response, then close tenant schedulers and WALs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.admission.drain()
        # In-flight responses are being written by per-connection writer
        # tasks; give them a moment, then cut idle connections loose
        # (their readers block on clients that may never speak again).
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=0.25)
        for conn in list(self._connections):
            conn.writer.close()
        if self._conn_tasks:
            await asyncio.wait(self._conn_tasks, timeout=5.0)
        self._executor.shutdown(wait=True)
        self.registry.close()

    # -- connection handling ----------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader=reader, writer=writer)
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(conn)
        )
        self._connections.add(conn)
        self._conn_tasks.add(task)

        def _done(finished: asyncio.Task) -> None:
            self._connections.discard(conn)
            self._conn_tasks.discard(task)
            finished.exception()  # retrieve; the handler already coped

        task.add_done_callback(_done)

    async def _handle_connection(self, conn: _Connection) -> None:
        try:
            first = await _readline(conn.reader)
            if first == b"":
                return
            if first and first.startswith(_HTTP_METHODS):
                try:
                    await self._serve_http(conn, first)
                except _Refused as refused:
                    await _http_reply(conn, refused.status, [refused.reply])
            else:
                await self._serve_jsonl(conn, first)
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError
        ):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- JSON-lines transport ---------------------------------------------

    async def _serve_jsonl(
        self, conn: _Connection, first: bytes | None
    ) -> None:
        writer_task = asyncio.get_running_loop().create_task(
            self._write_ordered(conn)
        )
        try:
            line = first
            while line:
                await self._accept_line(conn, line)
                if self._shutdown_requested.is_set():
                    break
                line = await _readline(conn.reader)
            if line is None:
                # Over-long: say so after the earlier replies, then
                # close — the rest of that line is still arriving.
                await conn.out_queue.put(protocol.OVERSIZE)
        finally:
            await conn.out_queue.put(None)
            await writer_task

    async def _write_ordered(self, conn: _Connection) -> None:
        """Emit responses in arrival order (tasks complete out of order;
        the queue restores the wire order)."""
        while True:
            item = await conn.out_queue.get()
            if item is None:
                return
            try:
                if isinstance(item, asyncio.Task):
                    item = await item
                text = protocol.encode(item)
            except Exception as exc:  # noqa: BLE001 — keep the conn alive
                text = protocol.encode(error_reply(
                    f"internal error: {type(exc).__name__}: {exc}"
                ))
            try:
                conn.writer.write(text.encode("utf-8") + b"\n")
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return  # client is gone; drain remaining tasks silently

    async def _accept_line(self, conn: _Connection, raw: bytes) -> None:
        """Decode one line and enqueue its (concurrent) handling."""
        kind, value = protocol.decode(raw)
        if kind is BLANK:
            return
        loop = asyncio.get_running_loop()
        if kind is MALFORMED:
            item = value  # the failure reply itself
        elif kind is OP:
            # Ops are barriers: like serve_lines, a mutation (or any
            # control op) first waits for the connection's in-flight
            # searches, so earlier requests observe the old state.
            await conn.drain_searches()
            item = loop.create_task(self._handle_op(conn, value))
        else:
            item = loop.create_task(self._handle_search(conn, value))
            conn.searches.add(item)
            item.add_done_callback(conn.searches.discard)
        await conn.out_queue.put(item)

    # -- tenant resolution -------------------------------------------------

    def _named_tenant(self, name: str) -> Tenant:
        tenant = self.registry.get(name)
        if tenant is None:
            raise _Refused(
                f"unknown tenant {name!r} "
                f"(configured: {self.registry.names})"
            )
        return tenant

    def _authenticated(self, tenant: Tenant, token: str | None) -> Tenant:
        if not self.auth.authenticate(tenant.name, token):
            tenant.metrics.record_rejected()
            raise _Refused(
                f"authentication failed for tenant {tenant.name!r}",
                401,
                auth=False,
            )
        return tenant

    def _resolve_tenant(self, conn: _Connection, obj: dict) -> Tenant:
        """The authenticated tenant a request addresses; raises
        :class:`_Refused` when there is none."""
        name = obj.get("tenant")
        if name is None:
            if conn.tenant is not None:
                return conn.tenant
            tenant = self.registry.sole_tenant
            if tenant is None:
                raise _Refused(
                    'tenant required: bind one with {"op": "hello", '
                    '"tenant": ...} or add a "tenant" field '
                    f"(configured: {self.registry.names})"
                )
        elif not isinstance(name, str):
            raise _Refused('"tenant" must be a string')
        else:
            tenant = self._named_tenant(name)
        return self._authenticated(tenant, conn.token)

    def _handle_hello(self, conn: _Connection, obj: dict) -> dict:
        name = obj.get("tenant")
        if isinstance(name, str):
            tenant = self._named_tenant(name)
        else:
            tenant = self.registry.sole_tenant
            if tenant is None:
                raise _Refused(
                    'hello needs a "tenant" name '
                    f"(configured: {self.registry.names})"
                )
        token = obj.get("token")
        if token is not None and not isinstance(token, str):
            raise _Refused('"token" must be a string')
        conn.tenant = self._authenticated(tenant, token)
        conn.token = token
        return {"ok": True, "tenant": tenant.name}

    # -- request handlers --------------------------------------------------

    async def _handle_search(self, conn: _Connection, obj: dict) -> Reply:
        tracer = get_tracer()
        if not tracer.enabled:
            return await self._answer_search(conn, obj, root=None)
        # The root span of the whole request tree. A client-supplied
        # trace_id (the line's "trace_id" field; the HTTP adapter maps
        # X-Trace-Id onto it) joins the gateway into the caller's
        # trace; otherwise a fresh one is issued here.
        raw = obj.get("trace_id")
        trace_id = raw if isinstance(raw, str) and raw else None
        with tracer.span("gateway.request", trace_id=trace_id) as root:
            return await self._answer_search(conn, obj, root=root)

    async def _answer_search(
        self, conn: _Connection, obj: dict, *, root: Any
    ) -> Reply:
        request = protocol.search_request(obj)
        if isinstance(request, SearchResponse):
            if root is not None:
                root.annotate(outcome="parse_error")
            return request
        try:
            tenant = self._resolve_tenant(conn, obj)
        except _Refused as refused:
            if root is not None:
                root.annotate(outcome="tenant_error")
            return refused.reply
        trace_context = None
        if root is not None:
            root.annotate(tenant=tenant.name, request_id=request.request_id)
            # Downstream layers (admission queue, scheduler, engine,
            # cluster) parent under the gateway's root span; the
            # context rides the request object (never its equality).
            trace_context = root.context
            request = replace(request, trace=trace_context)
        rejection = tenant.quota.check(SEARCH)
        if rejection is not None:
            tenant.metrics.record_rejected()
            if root is not None:
                root.annotate(outcome="rejected")
            return rejection.to_obj(request.request_id)
        scheduler = tenant.scheduler
        try:
            return await self.admission.submit(
                tenant,
                lambda: scheduler.answer(request),
                trace=trace_context,
            )
        except AdmissionShed as shed:
            if root is not None:
                root.annotate(outcome="shed")
            return protocol.shed_reply(
                shed.retry_after_seconds, request_id=request.request_id
            )
        except ReproError as exc:
            if root is not None:
                root.annotate(outcome="error")
            return SearchResponse.failure(request.request_id, str(exc))

    async def _handle_op(self, conn: _Connection, obj: dict) -> Reply:
        op = obj["op"]
        if op == "stats":
            return self.stats()
        if op == "explain":
            # A real search wearing an op hat: route it through the
            # search path so quota, admission, and tracing all apply.
            spec = protocol.explain_request(obj)
            return await self._handle_search(conn, spec)
        try:
            if op == "hello":
                return self._handle_hello(conn, obj)
            tenant = self._resolve_tenant(conn, obj)
        except _Refused as refused:
            return refused.reply
        scheduler = tenant.scheduler
        if op not in protocol.MUTATION_OPS:
            # Cheap scheduler controls; control() is total, and names
            # an op it does not know in its error reply.
            return protocol.control(scheduler, obj)
        rejection = tenant.quota.check(MUTATION)
        if rejection is not None:
            tenant.metrics.record_rejected()
            return rejection.to_obj()
        try:
            return await self.admission.submit(
                tenant, lambda: protocol.control(scheduler, obj)
            )
        except AdmissionShed as shed:
            return protocol.shed_reply(shed.retry_after_seconds, op=op)

    def stats(self) -> dict:
        """The gateway rollup (the ``stats`` op and ``GET /stats``)."""
        return gateway_rollup(
            self.registry,
            extra={
                "gateway": {
                    "uptime_seconds": round(
                        time.monotonic() - self._started, 6
                    ),
                    "inflight": self.admission.inflight,
                    "connections": len(self._connections),
                    "max_inflight": self.registry.max_inflight,
                }
            },
        )

    def slo(self) -> dict:
        """Per-tenant SLO snapshots (``GET /slo`` and ``{"op": "slo"}``
        without a bound tenant answer the whole fleet)."""
        tenants = {
            tenant.name: tenant.metrics.slo.snapshot()
            for tenant in self.registry
        }
        return {
            "tenants": tenants,
            "alerting": any(t["alerting"] for t in tenants.values()),
        }

    def readiness(self) -> dict:
        """Can this gateway usefully accept work right now?

        Degrades *before* errors surface: a dead cluster worker or a
        saturated admission queue flips ``ready`` even though the next
        request might still be served (by restart-on-demand or shed
        respectively) — that request would pay the repair latency or be
        dropped, which is exactly what a load balancer should route
        around. Checks: not draining, every tenant's admission queue
        below its bound, every cluster worker alive (observed without
        restarting — see ``ClusterPool.liveness``), and every WAL
        flushable.
        """
        checks: dict[str, Any] = {
            "accepting": not self._shutdown_requested.is_set(),
        }
        saturated = []
        workers_down = []
        wal_failed = []
        for tenant in self.registry:
            if tenant.metrics.queue_depth >= tenant.spec.max_queue_depth:
                saturated.append(tenant.name)
            liveness = getattr(tenant.scheduler.pool, "liveness", None)
            if callable(liveness):
                for status in liveness():
                    if not status["alive"]:
                        worker = status.get(
                            "worker", status["worker_id"]
                        )
                        workers_down.append(
                            f"{tenant.name}/worker-{worker}"
                        )
            wal = tenant.stack.wal
            if wal is not None:
                try:
                    wal.flush()
                except OSError:
                    wal_failed.append(tenant.name)
        checks["queues_unsaturated"] = not saturated
        if saturated:
            checks["saturated_tenants"] = saturated
        checks["cluster_workers_alive"] = not workers_down
        if workers_down:
            checks["workers_down"] = workers_down
        checks["wal_flushable"] = not wal_failed
        if wal_failed:
            checks["wal_failed_tenants"] = wal_failed
        ready = (
            checks["accepting"]
            and checks["queues_unsaturated"]
            and checks["cluster_workers_alive"]
            and checks["wal_flushable"]
        )
        return {"ready": ready, "checks": checks}

    def prometheus_text(self) -> str:
        """The Prometheus exposition (``GET /metrics``): every tenant's
        scheduler metrics, quota balances, and — for tenants served by
        a cluster backend — the fleet rollup and per-worker counters."""
        gateway_to_registry(
            self._prom, self.registry, connections=len(self._connections)
        )
        for tenant in self.registry:
            cluster_metrics = getattr(
                tenant.scheduler.pool, "cluster_metrics", None
            )
            if callable(cluster_metrics):
                cluster_to_registry(
                    self._prom,
                    cluster_metrics().snapshot(),
                    tenant=tenant.name,
                )
        return self._prom.render()

    # -- HTTP adapter ------------------------------------------------------

    async def _serve_http(self, conn: _Connection, first: bytes) -> None:
        try:
            parts = first.decode("latin-1").split()
            method, target = parts[0].upper(), parts[1]
        except (IndexError, UnicodeDecodeError):
            raise _Refused("bad request line", 400) from None
        headers: dict[str, str] = {}
        while True:
            raw = await _readline(conn.reader)
            if raw is None:
                raise _Refused("header line too long", 400)
            if not raw.strip():
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        auth_header = headers.get("authorization", "")
        if auth_header.lower().startswith("bearer "):
            conn.token = auth_header[7:].strip()
        tenant_name = headers.get("x-repro-tenant")
        path = target.split("?", 1)[0]
        if tenant_name is None and path.startswith("/tenant/"):
            tenant_name = path[len("/tenant/"):].strip("/")
        if method == "GET":
            if path == "/metrics":
                await _http_reply(
                    conn,
                    200,
                    text=self.prometheus_text().rstrip("\n"),
                    content_type=PromRegistry.CONTENT_TYPE,
                )
                return
            status = 200
            if path in ("/stats", "/"):
                reply = self.stats()
            elif path == "/healthz":
                # Liveness: the event loop answered; nothing else to
                # prove (readiness is the demanding probe).
                uptime = time.monotonic() - self._started
                reply = {"ok": True, "uptime_seconds": round(uptime, 6)}
            elif path == "/readyz":
                reply = self.readiness()
                status = 200 if reply["ready"] else 503
            elif path == "/slo":
                reply = self.slo()
            else:
                raise _Refused(f"no such resource: {path}")
            await _http_reply(conn, status, [reply])
            return
        if method != "POST":
            raise _Refused(f"method {method} not allowed", 405)
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise _Refused("bad Content-Length", 400)
        if length > MAX_LINE_BYTES:
            raise _Refused(f"body exceeds {MAX_LINE_BYTES} bytes", 413)
        body = await conn.reader.readexactly(length)
        if tenant_name is not None:
            conn.tenant = self._resolve_tenant(conn, {"tenant": tenant_name})
        trace_header = headers.get("x-trace-id")
        replies: list[Reply] = []
        for raw_line in body.splitlines():
            kind, value = protocol.decode(raw_line)
            if kind is BLANK:
                continue
            if kind is MALFORMED:
                replies.append(value)
            elif kind is OP:
                replies.append(await self._handle_op(conn, value))
            else:
                if trace_header and "trace_id" not in value:
                    # X-Trace-Id maps onto the wire-level trace_id
                    # field, so both transports share one join rule.
                    value["trace_id"] = trace_header
                replies.append(await self._handle_search(conn, value))
        status = 200
        retry_after: float | None = None
        warning: str | None = None
        if (
            len(replies) == 1
            and isinstance(replies[0], dict)
            and replies[0].get("rejected")
        ):
            status = 429
            retry_after = replies[0].get("retry_after_seconds")
        degraded_ids = [
            reply.request_id
            for reply in replies
            if isinstance(reply, SearchResponse) and reply.degraded
        ]
        if degraded_ids:
            # RFC 7234-style Warning: the answer is valid but partial
            # (>= 1 partition had no live replica). Status stays 200 —
            # the body says which requests, the header lets a proxy or
            # client flag the response without parsing it.
            warning = (
                '214 repro-gateway "degraded: partial partition '
                f'coverage ({", ".join(degraded_ids)})"'
            )
        await _http_reply(
            conn, status, replies,
            retry_after=retry_after, warning=warning,
        )


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


async def _http_reply(
    conn: _Connection,
    status: int,
    replies: list[Reply] = (),
    *,
    text: str | None = None,
    retry_after: float | None = None,
    warning: str | None = None,
    content_type: str = "application/json",
) -> None:
    """One response: ``replies`` as JSON lines, or ``text`` as is."""
    if text is None:
        text = "\n".join(map(protocol.encode, replies))
    body = (text + "\n").encode("utf-8")
    reason = _HTTP_REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
    )
    if retry_after is not None:
        head += f"Retry-After: {max(1, round(retry_after))}\r\n"
    if warning is not None:
        head += f"Warning: {warning}\r\n"
    conn.writer.write(head.encode("latin-1") + b"\r\n" + body)
    await conn.writer.drain()


async def run_gateway(
    registry: TenantRegistry,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    auth: AuthPolicy | None = None,
    executor_workers: int | None = None,
    ready: "asyncio.Event | None" = None,
    announce=None,
) -> GatewayServer:
    """Start a gateway, announce its port, serve until shutdown.

    ``announce(server)`` (if given) runs once the port is bound —
    the CLI prints the listen line there, tests capture the port.
    ``ready`` is set at the same moment for in-process callers.
    """
    server = GatewayServer(
        registry,
        host=host,
        port=port,
        auth=auth,
        executor_workers=executor_workers,
    )
    await server.start()
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    await server.serve_until_shutdown(install_signals=True)
    return server
