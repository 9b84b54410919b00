"""The asyncio network front end: TCP JSON-lines + a minimal HTTP POST
adapter, multi-tenant, quota-checked, admission-controlled.

Wire protocol (TCP, newline-delimited JSON — a superset of the stdin
protocol of ``repro serve``)::

    {"op": "hello", "tenant": "alpha", "token": "s3cret"}
                      -> {"ok": true, "tenant": "alpha"}  (binds the
                         connection; optional when one tenant exists)
    {"id": "q1", "query": ["LA", "NYC"], "k": 5}
                      -> a SearchResponse line, or a structured
                         rejection {"id": "q1", "error": ...,
                         "rejected": true, "retry_after_seconds": r}
    {"op": "insert"|"delete"|"replace", ...}
                      -> the mutation ack (quota-checked against the
                         tenant's mutation bucket)
    {"op": "metrics"} -> the bound tenant's metrics snapshot
    {"op": "prometheus"}
                      -> the bound tenant's Prometheus exposition text
    {"op": "stats"}   -> the gateway rollup (per-tenant + totals)
    {"op": "slo"}     -> the bound tenant's burn-rate snapshot
    {"op": "explain", "query": [...], ...}
                      -> run the search (quota/admission like any
                         search) and attach the EXPLAIN report
    {"op": "flush"|"invalidate"}
                      -> tenant-scoped scheduler controls

A search line may carry ``"trace_id"`` to join the request into a
caller-owned trace; with tracing enabled (``--trace``) the gateway
opens a ``gateway.request`` root span either way and threads its
context through admission, the scheduler, the engine phases, and —
for cluster-backed tenants — across the worker wire.

Every request line may carry ``"tenant": "name"`` to address a tenant
explicitly (re-authenticated against the connection's token). Requests
on one connection are answered **in arrival order**; searches execute
concurrently, and a mutation op waits for the connection's in-flight
searches first, so earlier requests observe the pre-mutation state —
the same ordering contract ``serve_lines`` keeps on stdin.

The HTTP/1.1 adapter shares the listener: a request whose first bytes
look like an HTTP method is parsed as ``POST /`` (body = one JSON
object or many JSON lines; tenant from ``X-Repro-Tenant`` or the
``/tenant/<name>`` path; token from ``Authorization: Bearer``) or
``GET /stats``, ``GET /metrics`` (Prometheus text exposition),
``GET /healthz`` (liveness), ``GET /readyz`` (readiness — 503 while
draining, while any tenant's admission queue is saturated, while a
cluster worker is down, or while a WAL will not flush), or ``GET
/slo`` (per-tenant burn-rate snapshots). An
``X-Trace-Id`` header maps onto the ``trace_id`` field of each body
line. A single rejected request maps to ``429`` with a ``Retry-After``
header; everything else answers ``200`` with one JSON response per
line.

Shutdown (SIGINT/SIGTERM or :meth:`GatewayServer.request_shutdown`)
reuses the cluster's graceful-drain semantics: stop accepting, let
every admitted job finish and its response flush, then close each
tenant's scheduler and WAL, and return — exit code 0.
"""

from __future__ import annotations

import asyncio
import json
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
from repro.service.request import SearchRequest, SearchResponse
from repro.service.server import control_line

_COMPACT = {"separators": (",", ":")}

#: HTTP methods the adapter recognizes on a fresh connection.
_HTTP_METHODS = (b"POST ", b"GET ", b"PUT ", b"HEAD ")

#: Ops the JSON-lines handler accepts (superset of ``serve_lines``).
_TENANT_OPS = {"metrics", "prometheus", "flush", "invalidate", "slo"}
_MUTATION_OPS = {"insert", "delete", "replace"}


def _error_line(message: str, **extra: Any) -> str:
    return json.dumps({"error": message, **extra}, **_COMPACT)


@dataclass(eq=False)  # identity semantics: connections live in sets
class _Connection:
    """Per-connection state: the bound tenant, the presented token, and
    the ordered-response machinery."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    tenant: Tenant | None = None
    token: str | None = None
    out_queue: "asyncio.Queue[asyncio.Task | None]" = field(
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
                self._on_connection, host=self.host, port=self.port
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
            first = await conn.reader.readline()
            if not first:
                return
            if any(first.startswith(method) for method in _HTTP_METHODS):
                await self._serve_http(conn, first)
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

    async def _serve_jsonl(self, conn: _Connection, first: bytes) -> None:
        writer_task = asyncio.get_running_loop().create_task(
            self._write_ordered(conn)
        )
        try:
            line: bytes | None = first
            while line:
                await self._accept_line(conn, line)
                if self._shutdown_requested.is_set():
                    break
                line = await conn.reader.readline()
        finally:
            await conn.out_queue.put(None)
            await writer_task

    async def _write_ordered(self, conn: _Connection) -> None:
        """Emit responses in arrival order (tasks complete out of order;
        the queue restores the wire order)."""
        while True:
            task = await conn.out_queue.get()
            if task is None:
                return
            try:
                text = await task
            except Exception as exc:  # noqa: BLE001 — keep the conn alive
                text = _error_line(
                    f"internal error: {type(exc).__name__}: {exc}"
                )
            if text is None:
                continue
            try:
                conn.writer.write(text.encode("utf-8") + b"\n")
                await conn.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return  # client is gone; drain remaining tasks silently

    async def _accept_line(self, conn: _Connection, raw: bytes) -> None:
        """Parse one line and enqueue its (concurrent) handling."""
        loop = asyncio.get_running_loop()
        stripped = raw.strip()
        if not stripped or stripped.startswith(b"#"):
            return
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            obj = SearchResponse.failure(
                "parse", f"bad request JSON: {exc}"
            )
            task = loop.create_task(_immediate(obj.to_json()))
            await conn.out_queue.put(task)
            return
        if isinstance(obj, dict) and isinstance(obj.get("op"), str):
            # Ops are barriers: like serve_lines, a mutation (or any
            # control op) first waits for the connection's in-flight
            # searches, so earlier requests observe the old state.
            await conn.drain_searches()
            task = loop.create_task(self._handle_op(conn, obj))
        else:
            task = loop.create_task(self._handle_search(conn, obj))
            conn.searches.add(task)
            task.add_done_callback(conn.searches.discard)
        await conn.out_queue.put(task)

    # -- tenant resolution -------------------------------------------------

    def _resolve_tenant(
        self, conn: _Connection, obj: dict | None
    ) -> Tenant | str:
        """The tenant a request addresses, or an error line (str)."""
        name = None
        if isinstance(obj, dict):
            raw_name = obj.get("tenant")
            if raw_name is not None:
                if not isinstance(raw_name, str):
                    return _error_line('"tenant" must be a string')
                name = raw_name
        if name is None:
            if conn.tenant is not None:
                return conn.tenant
            sole = self.registry.sole_tenant
            if sole is None:
                return _error_line(
                    'tenant required: bind one with {"op": "hello", '
                    '"tenant": ...} or add a "tenant" field '
                    f"(configured: {self.registry.names})"
                )
            tenant = sole
        else:
            found = self.registry.get(name)
            if found is None:
                return _error_line(
                    f"unknown tenant {name!r} "
                    f"(configured: {self.registry.names})"
                )
            tenant = found
        if not self.auth.authenticate(tenant.name, conn.token):
            tenant.metrics.record_rejected()
            return _error_line(
                f"authentication failed for tenant {tenant.name!r}",
                auth=False,
            )
        return tenant

    # -- request handlers --------------------------------------------------

    async def _handle_search(self, conn: _Connection, obj: Any) -> str:
        tracer = get_tracer()
        if not tracer.enabled:
            return await self._answer_search(conn, obj, root=None)
        # The root span of the whole request tree. A client-supplied
        # trace_id (the line's "trace_id" field; the HTTP adapter maps
        # X-Trace-Id onto it) joins the gateway into the caller's
        # trace; otherwise a fresh one is issued here.
        trace_id = None
        if isinstance(obj, dict):
            raw = obj.get("trace_id")
            if isinstance(raw, str) and raw:
                trace_id = raw
        with tracer.span("gateway.request", trace_id=trace_id) as root:
            return await self._answer_search(conn, obj, root=root)

    async def _answer_search(
        self, conn: _Connection, obj: Any, *, root: Any
    ) -> str:
        try:
            request = SearchRequest.from_obj(
                {k: v for k, v in obj.items() if k != "tenant"}
                if isinstance(obj, dict)
                else obj
            )
        except ReproError as exc:
            if root is not None:
                root.annotate(outcome="parse_error")
            return SearchResponse.failure("parse", str(exc)).to_json()
        resolved = self._resolve_tenant(
            conn, obj if isinstance(obj, dict) else None
        )
        if isinstance(resolved, str):
            if root is not None:
                root.annotate(outcome="tenant_error")
            return resolved
        tenant = resolved
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
            return json.dumps(
                rejection.to_obj(request.request_id), **_COMPACT
            )
        scheduler = tenant.scheduler
        try:
            response = await self.admission.submit(
                tenant,
                lambda: scheduler.answer(request),
                trace=trace_context,
            )
        except AdmissionShed as shed:
            if root is not None:
                root.annotate(outcome="shed")
            return json.dumps(
                {
                    "id": request.request_id,
                    "error": "request shed under load",
                    "rejected": True,
                    "shed": True,
                    "retry_after_seconds": round(
                        shed.retry_after_seconds, 6
                    ),
                },
                **_COMPACT,
            )
        except ReproError as exc:
            if root is not None:
                root.annotate(outcome="error")
            return SearchResponse.failure(
                request.request_id, str(exc)
            ).to_json()
        return response.to_json()

    async def _handle_op(self, conn: _Connection, obj: dict) -> str:
        op = obj["op"]
        if op == "hello":
            return self._handle_hello(conn, obj)
        if op == "stats":
            return json.dumps(self.stats(), **_COMPACT)
        if op == "explain":
            # A real search wearing an op hat: route it through the
            # search path so quota, admission, and tracing all apply.
            spec = {key: value for key, value in obj.items() if key != "op"}
            spec["explain"] = True
            return await self._handle_search(conn, spec)
        resolved = self._resolve_tenant(conn, obj)
        if isinstance(resolved, str):
            return resolved
        tenant = resolved
        scheduler = tenant.scheduler
        if op in _MUTATION_OPS:
            rejection = tenant.quota.check(MUTATION)
            if rejection is not None:
                tenant.metrics.record_rejected()
                return json.dumps(rejection.to_obj(), **_COMPACT)
            try:
                return await self.admission.submit(
                    tenant, lambda: control_line(scheduler, obj)
                )
            except AdmissionShed as shed:
                return json.dumps(
                    {
                        "error": "mutation shed under load",
                        "op": op,
                        "rejected": True,
                        "shed": True,
                        "retry_after_seconds": round(
                            shed.retry_after_seconds, 6
                        ),
                    },
                    **_COMPACT,
                )
        if op in _TENANT_OPS:
            # Cheap scheduler controls: total by construction (the
            # hardened _control_line never raises).
            return control_line(scheduler, obj)
        return _error_line(f"unknown op: {op}", op=op)

    def _handle_hello(self, conn: _Connection, obj: dict) -> str:
        name = obj.get("tenant")
        if not isinstance(name, str):
            sole = self.registry.sole_tenant
            if sole is None:
                return _error_line(
                    'hello needs a "tenant" name '
                    f"(configured: {self.registry.names})"
                )
            name = sole.name
        tenant = self.registry.get(name)
        if tenant is None:
            return _error_line(
                f"unknown tenant {name!r} "
                f"(configured: {self.registry.names})"
            )
        token = obj.get("token")
        if token is not None and not isinstance(token, str):
            return _error_line('"token" must be a string')
        if not self.auth.authenticate(name, token):
            tenant.metrics.record_rejected()
            return _error_line(
                f"authentication failed for tenant {name!r}", auth=False
            )
        conn.tenant = tenant
        conn.token = token
        return json.dumps({"ok": True, "tenant": name}, **_COMPACT)

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
            await _http_reply(conn, 400, [_error_line("bad request line")])
            return
        headers: dict[str, str] = {}
        while True:
            raw = await conn.reader.readline()
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
            if path in ("/stats", "/"):
                await _http_reply(
                    conn, 200, [json.dumps(self.stats(), **_COMPACT)]
                )
            elif path == "/metrics":
                await _http_reply(
                    conn,
                    200,
                    [self.prometheus_text().rstrip("\n")],
                    content_type=PromRegistry.CONTENT_TYPE,
                )
            elif path == "/healthz":
                # Liveness: the event loop answered; nothing else to
                # prove (readiness is the demanding probe).
                await _http_reply(
                    conn,
                    200,
                    [json.dumps(
                        {
                            "ok": True,
                            "uptime_seconds": round(
                                time.monotonic() - self._started, 6
                            ),
                        },
                        **_COMPACT,
                    )],
                )
            elif path == "/readyz":
                readiness = self.readiness()
                await _http_reply(
                    conn,
                    200 if readiness["ready"] else 503,
                    [json.dumps(readiness, **_COMPACT)],
                )
            elif path == "/slo":
                await _http_reply(
                    conn, 200, [json.dumps(self.slo(), **_COMPACT)]
                )
            else:
                await _http_reply(
                    conn, 404, [_error_line(f"no such resource: {path}")]
                )
            return
        if method != "POST":
            await _http_reply(
                conn, 405, [_error_line(f"method {method} not allowed")]
            )
            return
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            await _http_reply(
                conn, 400, [_error_line("bad Content-Length")]
            )
            return
        body = (
            await conn.reader.readexactly(length) if length else b""
        )
        if tenant_name is not None:
            resolved = self._resolve_tenant(conn, {"tenant": tenant_name})
            if isinstance(resolved, str):
                status = 401 if '"auth":false' in resolved else 404
                await _http_reply(conn, status, [resolved])
                return
            conn.tenant = resolved
        trace_header = headers.get("x-trace-id")
        lines = [ln for ln in body.splitlines() if ln.strip()]
        responses: list[str] = []
        for raw_line in lines:
            try:
                obj = json.loads(raw_line)
            except json.JSONDecodeError as exc:
                responses.append(
                    SearchResponse.failure(
                        "parse", f"bad request JSON: {exc}"
                    ).to_json()
                )
                continue
            if isinstance(obj, dict) and isinstance(obj.get("op"), str):
                responses.append(await self._handle_op(conn, obj))
            else:
                if (
                    trace_header
                    and isinstance(obj, dict)
                    and "trace_id" not in obj
                ):
                    # X-Trace-Id maps onto the wire-level trace_id
                    # field, so both transports share one join rule.
                    obj["trace_id"] = trace_header
                responses.append(await self._handle_search(conn, obj))
        status = 200
        retry_after: float | None = None
        warning: str | None = None
        degraded_ids: list[str] = []
        for response in responses:
            try:
                decoded = json.loads(response)
            except json.JSONDecodeError:
                continue
            if not isinstance(decoded, dict):
                continue
            if len(responses) == 1 and decoded.get("rejected"):
                status = 429
                retry_after = decoded.get("retry_after_seconds")
            if decoded.get("degraded"):
                degraded_ids.append(str(decoded.get("id")))
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
            conn, status, responses,
            retry_after=retry_after, warning=warning,
        )


async def _immediate(text: str) -> str:
    return text


_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    503: "Service Unavailable",
}


async def _http_reply(
    conn: _Connection,
    status: int,
    lines: list[str],
    *,
    retry_after: float | None = None,
    warning: str | None = None,
    content_type: str = "application/json",
) -> None:
    body = ("\n".join(lines) + "\n").encode("utf-8")
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
