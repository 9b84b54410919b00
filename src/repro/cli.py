"""Command-line interface: ``python -m repro <command>``.

Commands cover the downstream workflow end to end:

* ``generate`` — synthesize a Table-I-shaped corpus to a JSON collection;
* ``search`` — one top-k semantic overlap search over a JSON/CSV
  collection or snapshot (hashing embeddings + exact cosine index by
  default, q-gram Jaccard with ``--jaccard``);
* ``stats`` — shape statistics of a collection (the Table I columns);
* ``index build|inspect|compact`` — snapshot lifecycle: persist a
  collection + substrate, read a manifest, fold a write-ahead log back
  into a fresh snapshot;
* ``serve`` — long-lived JSON-lines query server over stdin/stdout,
  backed by the :mod:`repro.service` scheduler/cache/engine-pool stack,
  with live insert/delete/replace (optionally WAL-durable);
* ``batch`` — answer a file of JSON-lines queries to a results file
  through the same serving stack (maximal batching and dedup);
* ``explain`` — answer a query file and print each request's EXPLAIN
  report: the pruning funnel as a table (merged and per partition),
  per-phase seconds, verification cost estimates, cache attribution;
* ``cluster serve|bench`` — the same JSON-lines protocol over the
  multi-process scatter-gather backend of :mod:`repro.cluster` (one
  worker process per partition of the set-id space), and its scaling
  benchmark against the threaded single-process baseline;
* ``gateway serve`` — the asyncio network front end of
  :mod:`repro.gateway`: multi-tenant named collections from a JSON
  config, per-tenant token-bucket quotas with ``retry_after_seconds``
  rejections, bounded admission queues with oldest-first load
  shedding, pluggable auth, TCP JSON-lines + minimal HTTP POST on one
  port (plus ``GET /metrics`` Prometheus exposition);
* ``trace tail|show|top`` — the trace inspector of :mod:`repro.obs`:
  reconstruct and pretty-print span trees from the JSON-lines sink
  the ``--trace`` flag of the serving commands writes.

``serve``, ``cluster serve``, and ``gateway serve`` accept ``--trace
PATH`` (plus ``--trace-sample`` and ``--trace-slow-ms``) to emit
request spans — gateway root, admission queue wait, scheduler,
engine phases, cluster scatter/worker — to a bounded, rotating sink.

``serve`` and ``cluster serve`` shut down gracefully on SIGINT/SIGTERM:
in-flight scheduler work drains, pending responses are emitted, the
write-ahead log is flushed and closed, and the process exits 0.

User errors exit with a distinct non-zero code per error family (see
``ERROR_EXIT_CODES``) instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro.core.config import FilterConfig
from repro.datasets.io import load_collection_auto, save_collection_json
from repro.datasets.profiles import profile_by_name
from repro.datasets.synthetic import generate_dataset
from repro.errors import (
    ClusterError,
    EmptyQueryError,
    GatewayError,
    InvalidParameterError,
    ReproError,
    SnapshotError,
    VocabularyError,
    WalError,
)
from repro.service import (
    EnginePool,
    GracefulShutdown,
    QueryScheduler,
    ResultCache,
    SearchRequest,
    protocol,
    run_batch,
    serve_lines,
)
from repro.service.bootstrap import (
    build_serving_stack,
    build_substrate,
    load_serving_stack,
    substrate_descriptor,
)
from repro.store.snapshot import (
    SNAPSHOT_SUFFIXES,
    inspect_snapshot,
    save_snapshot,
)
from repro.store.wal import WriteAheadLog, compact, pending_records

#: Exit code per user-error family, most specific first. Unexpected
#: exceptions still traceback — those are bugs, not usage errors.
ERROR_EXIT_CODES: list[tuple[type, int]] = [
    (InvalidParameterError, 2),
    (EmptyQueryError, 3),
    (VocabularyError, 4),
    (SnapshotError, 5),
    (WalError, 6),
    (ClusterError, 8),
    (GatewayError, 9),
    (ReproError, 7),
]

#: Exit code for OS-level input problems (missing/unreadable files).
EX_NOINPUT = 66


def package_version() -> str:
    """The installed distribution version, falling back to the in-tree
    constant when running from a source checkout."""
    try:
        from importlib import metadata

        return metadata.version("repro-koios")
    except Exception:
        import repro

        return repro.__version__


def _configure_tracing(args: argparse.Namespace) -> None:
    """Enable span tracing when the serving command asked for it.

    Runs before any backend construction, so cluster worker specs
    capture the configuration and spawned processes append to the
    same sink.
    """
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return
    from repro import obs

    obs.configure(
        trace_path,
        sample_rate=args.trace_sample,
        slow_threshold_ms=args.trace_slow_ms,
    )


def _install_shutdown_handlers() -> None:
    """SIGINT/SIGTERM raise :class:`GracefulShutdown` in the main
    thread. The first signal starts the graceful drain; handlers then
    revert to the OS default so a second signal force-terminates a
    drain that is stuck (e.g. waiting out a hung worker's timeout)
    instead of being ignored."""

    def handler(signum, frame):
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        raise GracefulShutdown()

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


def _build_scheduler(args: argparse.Namespace) -> QueryScheduler:
    """The serving stack shared by ``repro serve`` and ``repro batch``."""
    stack = build_serving_stack(
        args.collection,
        alpha=args.alpha,
        jaccard=args.jaccard,
        dim=args.dim,
        iub_mode=args.iub_mode,
        shards=args.shards,
        parallel_shards=args.parallel_shards,
        workers=args.workers,
        max_batch=args.max_batch,
        cache_size=args.cache_size if args.cache_size > 0 else None,
        wal_path=getattr(args, "wal", None),
    )
    if stack.replayed:
        print(
            f"# replayed {stack.replayed} WAL records "
            f"(collection version {stack.collection.version})",
            file=sys.stderr,
        )
    return stack.scheduler


def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: synthesize a profile-shaped corpus to JSON."""
    profile = profile_by_name(args.profile, scale=args.scale)
    dataset = generate_dataset(profile, seed=args.seed)
    save_collection_json(dataset.collection, args.output)
    stats = dataset.collection.stats()
    print(
        f"wrote {stats.num_sets} sets "
        f"(max {stats.max_size}, avg {stats.avg_size:.1f}, "
        f"{stats.num_unique_elements} unique tokens) to {args.output}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: print Table-I shape statistics as JSON."""
    stats = load_collection_auto(args.collection).stats()
    print(json.dumps(
        {
            "num_sets": stats.num_sets,
            "max_size": stats.max_size,
            "avg_size": round(stats.avg_size, 2),
            "num_unique_elements": stats.num_unique_elements,
        },
        indent=1,
    ))
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    """``repro search``: top-k semantic overlap search over a collection."""
    collection, index, sim, _, _ = load_serving_stack(
        args.collection, alpha=args.alpha, jaccard=args.jaccard, dim=args.dim
    )
    query = frozenset(args.token)
    pool = EnginePool(
        collection,
        index,
        sim,
        alpha=args.alpha,
        shards=args.partitions,
        config=FilterConfig.koios(iub_mode=args.iub_mode),
    )
    result = pool.search(query, k=args.k)
    for entry in result.entries:
        print(f"{entry.score:10.4f}  {entry.name}")
    if args.verbose:
        stats = result.stats
        print(
            f"# candidates={stats.candidates} "
            f"refinement_pruned={stats.refinement_pruned} "
            f"no_em={stats.no_em} "
            f"em_early_terminated={stats.em_early_terminated} "
            f"em_full={stats.em_full} "
            f"time={stats.response_seconds:.3f}s",
            file=sys.stderr,
        )
    return 0


def _run_serve_loop(scheduler: QueryScheduler, linger: int) -> int:
    """The shared serve loop with graceful SIGINT/SIGTERM shutdown:
    drain in-flight work, emit pending responses, flush/close the WAL
    (via ``scheduler.shutdown``), and report — exit code 0 either way."""
    _install_shutdown_handlers()
    # Raw bytes where stdin has them: the protocol owns UTF-8 decoding,
    # so an undecodable line is answered instead of killing the loop.
    lines = getattr(sys.stdin, "buffer", sys.stdin)
    try:
        served = serve_lines(scheduler, lines, sys.stdout, linger=linger)
    except GracefulShutdown:
        # The signal landed outside the serve loop's own handling
        # (e.g. between setup and the first read); nothing was dropped.
        served = scheduler.metrics.completed
    finally:
        scheduler.shutdown()
    snapshot = dict(scheduler.metrics.snapshot())
    print(
        f"# served {served} requests "
        f"(qps={snapshot['qps']}, "
        f"cache_hit_rate={snapshot['cache_hit_rate']}, "
        f"p95={snapshot['latency_p95']}s)",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: JSON-lines request loop on stdin/stdout."""
    _configure_tracing(args)
    with _build_scheduler(args) as scheduler:
        return _run_serve_loop(scheduler, args.linger)


def cmd_batch(args: argparse.Namespace) -> int:
    """``repro batch``: answer a query file through the serving stack."""
    with open(args.queries, "rb") as handle:
        lines = handle.readlines()
    with _build_scheduler(args) as scheduler:
        responses = run_batch(scheduler, lines)
        snapshot = dict(scheduler.metrics.snapshot())
    payload = "".join(response.to_json() + "\n" for response in responses)
    if args.output is None or args.output == "-":
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")
    errors = sum(1 for response in responses if response.error is not None)
    print(
        f"# answered {len(responses)} requests ({errors} errors, "
        f"cache_hit_rate={snapshot['cache_hit_rate']}, "
        f"mean_batch_occupancy={snapshot['mean_batch_occupancy']})",
        file=sys.stderr,
    )
    return 0 if errors == 0 else 1


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: run queries and print each one's EXPLAIN
    report — the pruning funnel (per partition and merged), per-phase
    seconds, verification cost estimates, and cache attribution."""
    from repro.obs.explain import render_explain

    with open(args.queries, "rb") as handle:
        lines = handle.readlines()
    number = failures = 0
    with _build_scheduler(args) as scheduler:
        for line in lines:
            kind, value = protocol.decode(line)
            if kind is protocol.BLANK:
                continue
            number += 1
            if number > 1:
                print()
            if kind is protocol.MALFORMED:
                raise InvalidParameterError(
                    f"line {number}: {value.error}"
                )
            response = scheduler.answer(
                SearchRequest.from_obj(protocol.explain_request(value))
            )
            if response.error is not None:
                print(f"# {response.request_id}: {response.error}")
                failures += 1
                continue
            for hit_line in response.result_lines():
                print(hit_line)
            print(render_explain(response.explain))
    return 0 if failures == 0 else 1


def cmd_cluster_serve(args: argparse.Namespace) -> int:
    """``repro cluster serve``: the JSON-lines protocol over worker
    processes (one per partition of the set-id space)."""
    from repro.cluster import ClusterPool
    from repro.store.mutable import MutableSetCollection

    _configure_tracing(args)  # before spawn: worker specs capture it
    collection, index, sim, descriptor, snapshot_path = load_serving_stack(
        args.collection, alpha=args.alpha, jaccard=args.jaccard, dim=args.dim
    )
    wal = None
    bootstrap_records = ()
    if args.wal is not None:
        if not hasattr(collection, "insert"):
            collection = MutableSetCollection(collection)
        wal = WriteAheadLog(args.wal)
        # Prior mutations replay through the cluster's bootstrap path,
        # so worker replicas and the coordinator derive identical state.
        # Records the snapshot already folded (compaction handshake) are
        # excluded so a crash between snapshot replace and WAL reset
        # cannot double-apply them.
        manifest = (
            inspect_snapshot(snapshot_path)
            if snapshot_path is not None else None
        )
        bootstrap_records = pending_records(wal, manifest)
    cluster = ClusterPool(
        collection,
        index,
        sim,
        alpha=args.alpha,
        workers=args.workers,
        replicas=args.replicas,
        shards=args.shards,
        config=FilterConfig.koios(iub_mode=args.iub_mode),
        snapshot_path=snapshot_path,
        substrate=descriptor,
        bootstrap_records=bootstrap_records,
        start_method=args.start_method,
        request_timeout=args.request_timeout,
    )
    if bootstrap_records:
        print(
            f"# replayed {len(bootstrap_records)} WAL records across "
            f"{args.workers} workers (version {collection.version})",
            file=sys.stderr,
        )
    cache = (
        ResultCache(capacity=args.cache_size) if args.cache_size > 0 else None
    )
    with cluster:
        with QueryScheduler(
            cluster,
            cache=cache,
            max_batch=args.max_batch,
            workers=args.scheduler_workers,
            wal=wal,
        ) as scheduler:
            return _run_serve_loop(scheduler, args.linger)


def cmd_cluster_bench(args: argparse.Namespace) -> int:
    """``repro cluster bench``: multi-process vs threaded throughput."""
    from repro.cluster.bench import (
        format_report,
        run_scaling_bench,
        zipf_queries,
    )

    collection = load_collection_auto(args.collection)
    descriptor = substrate_descriptor(
        jaccard=args.jaccard, dim=args.dim, alpha=args.alpha
    )
    try:
        worker_counts = sorted(
            {int(part) for part in args.workers.split(",") if part.strip()}
        )
    except ValueError:
        raise InvalidParameterError(
            f"--workers must be a comma-separated int list, got "
            f"{args.workers!r}"
        ) from None
    if not worker_counts or any(count < 1 for count in worker_counts):
        raise InvalidParameterError("--workers counts must be >= 1")
    queries = zipf_queries(
        collection,
        distinct=args.distinct,
        requests=args.requests,
        seed=args.seed,
    )
    results = run_scaling_bench(
        collection,
        descriptor,
        queries,
        k=args.k,
        alpha=args.alpha,
        worker_counts=worker_counts,
        start_method=args.start_method,
        config=FilterConfig.koios(iub_mode=args.iub_mode),
    )
    for line in format_report(results):
        print(line, file=sys.stderr)
    print(protocol.encode(results))
    return 0


def cmd_cluster_chaos(args: argparse.Namespace) -> int:
    """``repro cluster chaos``: replay a randomized workload under a
    deterministic fault plan; non-degraded answers must match the
    single-process baseline bitwise. Exit 0 only when nothing hung,
    nothing failed, and nothing mismatched."""
    from repro.cluster.faults import (
        FaultPlan,
        format_chaos_report,
        run_chaos,
    )

    collection = load_collection_auto(args.collection)
    descriptor = substrate_descriptor(
        jaccard=args.jaccard, dim=args.dim, alpha=args.alpha
    )
    if args.smoke:
        # The CI shape: short workload, 2 kills + 1 slow worker, tight
        # deadline — enough to exercise failover, background restart,
        # and the timeout path in under a minute.
        ops, kills, drops, slows = 40, 2, 0, 1
    else:
        ops, kills, drops, slows = args.ops, args.kills, args.drops, args.slows
    plan = FaultPlan.from_seed(
        args.fault_seed,
        ops=ops,
        partitions=args.workers,
        replicas=args.replicas,
        kills=kills,
        drops=drops,
        slows=slows,
        bootstrap_failures=args.bootstrap_failures,
        slow_duration=args.slow_duration,
    )
    report = run_chaos(
        collection,
        descriptor,
        plan=plan,
        workers=args.workers,
        replicas=args.replicas,
        ops=ops,
        k=args.k,
        seed=args.seed,
        request_timeout=args.request_timeout,
        start_method=args.start_method,
    )
    for line in format_chaos_report(report):
        print(line, file=sys.stderr)
    print(protocol.encode(report))
    return 0 if report["ok"] else 1


def cmd_gateway_serve(args: argparse.Namespace) -> int:
    """``repro gateway serve``: the asyncio multi-tenant front end."""
    import asyncio

    from repro.gateway import TenantRegistry
    from repro.gateway.server import run_gateway

    _configure_tracing(args)  # before tenant builds: cluster tenants
    registry = TenantRegistry.from_config(args.config)

    def announce(server) -> None:
        print(
            f"# gateway listening on {server.host}:{server.port} "
            f"(tenants: {', '.join(server.registry.names)})",
            file=sys.stderr,
            flush=True,
        )

    try:
        server = asyncio.run(
            run_gateway(
                registry,
                host=args.host,
                port=args.port,
                executor_workers=args.executor_workers,
                announce=announce,
            )
        )
    except KeyboardInterrupt:
        # The loop was torn down before the graceful path could run
        # (second signal); tenant WALs still flush on close.
        registry.close()
        return 0
    except Exception:
        registry.close()
        raise
    totals = server.stats()["totals"]
    print(
        f"# gateway drained: {totals['completed']} completed, "
        f"{totals['rejected']} rejected, {totals['shed']} shed "
        f"across {len(registry)} tenants",
        file=sys.stderr,
    )
    return 0


def cmd_trace_tail(args: argparse.Namespace) -> int:
    """``repro trace tail``: the most recent span trees in a sink."""
    from repro.obs.inspect import tail_traces

    shown = 0
    for tree in tail_traces(args.file, args.count):
        if shown:
            print()
        print(tree)
        shown += 1
    if not shown:
        print("(no traces)", file=sys.stderr)
    return 0


def cmd_trace_show(args: argparse.Namespace) -> int:
    """``repro trace show``: one trace's span tree by (prefix of) id."""
    from repro.obs.inspect import show_trace

    tree = show_trace(args.file, args.trace_id)
    if tree is None:
        raise InvalidParameterError(
            f"no trace matching {args.trace_id!r} in {args.file} "
            f"(prefixes must be unambiguous)"
        )
    print(tree)
    return 0


def cmd_trace_top(args: argparse.Namespace) -> int:
    """``repro trace top``: where did the milliseconds go?"""
    from repro.obs.inspect import format_top, top_spans

    print(format_top(top_spans(args.file, by=args.by, limit=args.limit)))
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    """``repro index build``: persist collection + substrate to a snapshot."""
    output = Path(args.output)
    if output.suffix.lower() not in SNAPSHOT_SUFFIXES:
        raise InvalidParameterError(
            f"snapshot output should end in .snap or .snapshot, got "
            f"{output.name!r}"
        )
    collection = load_collection_auto(args.collection)
    index, _, descriptor = build_substrate(
        collection, jaccard=args.jaccard, dim=args.dim, alpha=args.alpha
    )
    manifest = save_snapshot(
        output,
        collection,
        store=getattr(index, "store", None),
        substrate=descriptor,
    )
    print(
        f"wrote {output}: {manifest.num_sets} sets, "
        f"{manifest.num_tokens} tokens, "
        f"{manifest.total_postings} postings, "
        f"fingerprint {manifest.fingerprint[:12]}"
    )
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """``repro index inspect``: print a snapshot manifest as JSON."""
    manifest = inspect_snapshot(args.snapshot)
    print(json.dumps(manifest.to_obj(), indent=1, sort_keys=True))
    return 0


def cmd_index_compact(args: argparse.Namespace) -> int:
    """``repro index compact``: fold a WAL into a fresh snapshot."""
    if not Path(args.wal).exists():
        raise InvalidParameterError(
            f"write-ahead log not found: {args.wal}"
        )
    wal = WriteAheadLog(args.wal)
    manifest, applied = compact(args.snapshot, wal, output=args.output)
    target = args.output or args.snapshot
    print(
        f"folded {applied} WAL records into {target}: "
        f"{manifest.num_sets} sets, {manifest.num_tokens} tokens"
    )
    return 0


def _add_substrate_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by every command that builds a search stack."""
    parser.add_argument("--alpha", type=float, default=0.8)
    parser.add_argument(
        "--jaccard", action="store_true",
        help="q-gram Jaccard similarity instead of hashing embeddings",
    )
    parser.add_argument(
        "--dim", type=int, default=64,
        help="hashing-embedding dimensionality",
    )
    parser.add_argument(
        "--iub-mode", default="paper", choices=["paper", "safe"]
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Tracing options shared by the serving commands."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="emit request spans as JSON lines to this sink file "
        "(inspect with 'repro trace')",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of traces to keep (deterministic per trace_id; "
        "errors and slow requests are always kept)",
    )
    parser.add_argument(
        "--trace-slow-ms", type=float, default=None,
        help="always keep traces whose root span exceeds this many "
        "milliseconds (the slow-query log)",
    )


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``serve`` and ``batch``."""
    parser.add_argument("collection", help="JSON or long-CSV collection")
    _add_substrate_arguments(parser)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="engine-pool shards over the collection",
    )
    parser.add_argument(
        "--parallel-shards", action="store_true",
        help="fan one query's shards out on a thread pool",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="scheduler worker threads",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache capacity (0 disables caching)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=8,
        help="micro-batch occupancy that triggers dispatch",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Koios: top-k semantic overlap set search",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a Table-I-shaped corpus"
    )
    generate.add_argument(
        "--profile", default="opendata",
        choices=["dblp", "opendata", "twitter", "wdc"],
    )
    generate.add_argument(
        "--scale", default="small", choices=["tiny", "small", "full"]
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)
    generate.set_defaults(func=cmd_generate)

    stats = commands.add_parser(
        "stats", help="shape statistics of a collection"
    )
    stats.add_argument("collection")
    stats.set_defaults(func=cmd_stats)

    search = commands.add_parser(
        "search", help="top-k semantic overlap search"
    )
    search.add_argument("collection", help="JSON or long-CSV collection")
    search.add_argument(
        "token", nargs="+", help="query set elements"
    )
    search.add_argument("-k", type=int, default=10)
    _add_substrate_arguments(search)
    search.add_argument(
        "--partitions", type=int, default=1,
        help="random partitions sharing one theta_lb (§VI), served as "
        "the shards of one engine pool",
    )
    search.add_argument("--verbose", action="store_true")
    search.set_defaults(func=cmd_search)

    index = commands.add_parser(
        "index", help="snapshot lifecycle: build, inspect, compact"
    )
    index_commands = index.add_subparsers(
        dest="index_command", required=True
    )
    build = index_commands.add_parser(
        "build", help="persist a collection + substrate to a snapshot"
    )
    build.add_argument("collection", help="JSON or long-CSV collection")
    build.add_argument("output", help="snapshot path (.snap)")
    _add_substrate_arguments(build)
    build.set_defaults(func=cmd_index_build)
    inspect = index_commands.add_parser(
        "inspect", help="print a snapshot manifest as JSON"
    )
    inspect.add_argument("snapshot")
    inspect.set_defaults(func=cmd_index_inspect)
    compact_cmd = index_commands.add_parser(
        "compact", help="fold a write-ahead log into a fresh snapshot"
    )
    compact_cmd.add_argument("snapshot")
    compact_cmd.add_argument(
        "--wal", required=True, help="write-ahead log to fold in"
    )
    compact_cmd.add_argument(
        "--output", default=None,
        help="write the compacted snapshot here (default: in place)",
    )
    compact_cmd.set_defaults(func=cmd_index_compact)

    serve = commands.add_parser(
        "serve", help="JSON-lines query server on stdin/stdout"
    )
    _add_service_arguments(serve)
    serve.add_argument(
        "--linger", type=int, default=1,
        help="requests to accumulate before flushing a micro-batch",
    )
    serve.add_argument(
        "--wal", default=None,
        help="write-ahead log for insert/delete/replace durability "
        "(replayed on start)",
    )
    _add_trace_arguments(serve)
    serve.set_defaults(func=cmd_serve)

    explain = commands.add_parser(
        "explain",
        help="run queries through the serving stack and print each "
        "one's EXPLAIN report (pruning funnel, phases, cost estimates)",
    )
    _add_service_arguments(explain)
    explain.add_argument(
        "queries",
        help="JSON-lines query file (same format as 'repro batch')",
    )
    explain.set_defaults(func=cmd_explain)

    batch = commands.add_parser(
        "batch", help="answer a JSON-lines query file via the service"
    )
    _add_service_arguments(batch)
    batch.add_argument("queries", help="JSON-lines request file")
    batch.add_argument(
        "--output", default="-",
        help="responses file ('-' = stdout)",
    )
    batch.set_defaults(func=cmd_batch)

    cluster = commands.add_parser(
        "cluster",
        help="multi-process scatter-gather serving and its benchmark",
    )
    cluster_commands = cluster.add_subparsers(
        dest="cluster_command", required=True
    )
    cluster_serve = cluster_commands.add_parser(
        "serve",
        help="JSON-lines query server over worker processes",
    )
    cluster_serve.add_argument(
        "collection", help="JSON, long-CSV, or snapshot collection"
    )
    _add_substrate_arguments(cluster_serve)
    cluster_serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (one partition of the set-id space each)",
    )
    cluster_serve.add_argument(
        "--replicas", type=int, default=1,
        help="processes per partition slot; >1 enables failover reads "
        "(a dead primary fails over to a live replica instead of "
        "blocking on a restart)",
    )
    cluster_serve.add_argument(
        "--shards", type=int, default=1,
        help="engines per worker partition",
    )
    cluster_serve.add_argument(
        "--scheduler-workers", type=int, default=1,
        help="coordinator-side scheduler threads",
    )
    cluster_serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="result-cache capacity (0 disables caching)",
    )
    cluster_serve.add_argument(
        "--max-batch", type=int, default=8,
        help="micro-batch occupancy that triggers dispatch",
    )
    cluster_serve.add_argument(
        "--linger", type=int, default=1,
        help="requests to accumulate before flushing a micro-batch",
    )
    cluster_serve.add_argument(
        "--wal", default=None,
        help="write-ahead log for mutation durability (replayed on "
        "start across the whole fleet)",
    )
    cluster_serve.add_argument(
        "--request-timeout", type=float, default=120.0,
        help="seconds before a silent worker is declared failed",
    )
    cluster_serve.add_argument(
        "--start-method", default="spawn",
        choices=["spawn", "fork", "forkserver"],
        help="multiprocessing start method (spawn is the portable "
        "default)",
    )
    _add_trace_arguments(cluster_serve)
    cluster_serve.set_defaults(func=cmd_cluster_serve)
    cluster_bench = cluster_commands.add_parser(
        "bench",
        help="cluster vs threaded-pool scaling benchmark",
    )
    cluster_bench.add_argument(
        "collection", help="JSON, long-CSV, or snapshot collection"
    )
    _add_substrate_arguments(cluster_bench)
    cluster_bench.add_argument(
        "--workers", default="1,2,4",
        help="comma-separated worker counts to sweep",
    )
    cluster_bench.add_argument(
        "--requests", type=int, default=60,
        help="Zipf-skewed requests per configuration",
    )
    cluster_bench.add_argument(
        "--distinct", type=int, default=30,
        help="distinct queries underlying the Zipf stream",
    )
    cluster_bench.add_argument("-k", type=int, default=10)
    cluster_bench.add_argument("--seed", type=int, default=13)
    cluster_bench.add_argument(
        "--start-method", default="spawn",
        choices=["spawn", "fork", "forkserver"],
    )
    cluster_bench.set_defaults(func=cmd_cluster_bench)
    cluster_chaos = cluster_commands.add_parser(
        "chaos",
        help="deterministic fault-injection run: kills/drops/slow "
        "workers against a replicated cluster, gated on bitwise "
        "equivalence and zero hung requests",
    )
    cluster_chaos.add_argument(
        "collection", help="JSON, long-CSV, or snapshot collection"
    )
    _add_substrate_arguments(cluster_chaos)
    cluster_chaos.add_argument(
        "--workers", type=int, default=2,
        help="partitions (worker slots)",
    )
    cluster_chaos.add_argument(
        "--replicas", type=int, default=2,
        help="processes per partition slot",
    )
    cluster_chaos.add_argument(
        "--ops", type=int, default=110,
        help="workload length (queries + mutations)",
    )
    cluster_chaos.add_argument(
        "--kills", type=int, default=3,
        help="SIGKILLed workers over the run",
    )
    cluster_chaos.add_argument(
        "--drops", type=int, default=1,
        help="coordinator-side pipe drops over the run",
    )
    cluster_chaos.add_argument(
        "--slows", type=int, default=1,
        help="delayed worker replies over the run",
    )
    cluster_chaos.add_argument(
        "--bootstrap-failures", type=int, default=0,
        help="injected bootstrap failures (holds a slot down)",
    )
    cluster_chaos.add_argument(
        "--slow-duration", type=float, default=1.0,
        help="seconds a slow reply is delayed",
    )
    cluster_chaos.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed of the fault schedule (same seed, same timeline)",
    )
    cluster_chaos.add_argument(
        "--seed", type=int, default=31, help="workload seed"
    )
    cluster_chaos.add_argument("-k", type=int, default=10)
    cluster_chaos.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-op deadline before failover/degradation",
    )
    cluster_chaos.add_argument(
        "--smoke", action="store_true",
        help="short CI shape: 40 ops, 2 kills + 1 slow worker",
    )
    cluster_chaos.add_argument(
        "--start-method", default="spawn",
        choices=["spawn", "fork", "forkserver"],
    )
    cluster_chaos.set_defaults(func=cmd_cluster_chaos)

    gateway = commands.add_parser(
        "gateway",
        help="asyncio multi-tenant network front end",
    )
    gateway_commands = gateway.add_subparsers(
        dest="gateway_command", required=True
    )
    gateway_serve = gateway_commands.add_parser(
        "serve",
        help="serve tenants from a JSON config over TCP (JSON-lines "
        "+ HTTP POST)",
    )
    gateway_serve.add_argument(
        "--config", required=True,
        help="tenant config JSON (see docs/gateway.md for the schema)",
    )
    gateway_serve.add_argument(
        "--host", default="127.0.0.1",
        help="listen address (default loopback)",
    )
    gateway_serve.add_argument(
        "--port", type=int, default=7207,
        help="listen port (0 = pick a free one, announced on stderr)",
    )
    gateway_serve.add_argument(
        "--executor-workers", type=int, default=None,
        help="threads executing admitted requests (default: the "
        "config's max_inflight)",
    )
    _add_trace_arguments(gateway_serve)
    gateway_serve.set_defaults(func=cmd_gateway_serve)

    trace = commands.add_parser(
        "trace",
        help="inspect a span sink: tail recent traces, show one, "
        "aggregate hot spans",
    )
    trace_commands = trace.add_subparsers(
        dest="trace_command", required=True
    )
    trace_tail = trace_commands.add_parser(
        "tail", help="pretty-print the most recent span trees"
    )
    trace_tail.add_argument(
        "file", help="trace sink path (a server's --trace)"
    )
    trace_tail.add_argument(
        "--count", type=int, default=5,
        help="how many of the most recent traces to show",
    )
    trace_tail.set_defaults(func=cmd_trace_tail)
    trace_show = trace_commands.add_parser(
        "show", help="one trace's span tree by trace id"
    )
    trace_show.add_argument(
        "file", help="trace sink path (a server's --trace)"
    )
    trace_show.add_argument(
        "trace_id", help="full trace id or an unambiguous prefix"
    )
    trace_show.set_defaults(func=cmd_trace_show)
    trace_top = trace_commands.add_parser(
        "top", help="aggregate span durations across the sink"
    )
    trace_top.add_argument(
        "file", help="trace sink path (a server's --trace)"
    )
    trace_top.add_argument(
        "--by", default="name", choices=["name", "phase"],
        help="group over span names or engine phases only",
    )
    trace_top.add_argument(
        "--limit", type=int, default=20,
        help="rows to print",
    )
    trace_top.set_defaults(func=cmd_trace_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library :class:`ReproError`\\ s and missing-file ``OSError``\\ s are
    user errors: they print one ``repro: error:`` line and exit with the
    family's code from :data:`ERROR_EXIT_CODES` / :data:`EX_NOINPUT`.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        for error_type, code in ERROR_EXIT_CODES:
            if isinstance(exc, error_type):
                return code
        return ERROR_EXIT_CODES[-1][1]
    except OSError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EX_NOINPUT


if __name__ == "__main__":
    raise SystemExit(main())
