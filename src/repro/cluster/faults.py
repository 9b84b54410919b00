"""Deterministic fault injection for the cluster.

A :class:`FaultPlan` is a *seeded schedule* of faults — worker kills,
pipe drops, slow responses, bootstrap failures — pinned to op indices
of a workload. A :class:`FaultInjector` replays that schedule against a
live :class:`~repro.cluster.coordinator.ClusterPool`: the coordinator
calls :meth:`FaultInjector.begin_op` at the top of every search and
mutation, and the injector fires whatever the plan scheduled for that
index. Because the plan derives from :func:`~repro.utils.rng.make_rng`
and every firing is synchronous (a kill SIGKILLs *and joins* the
victim before the op proceeds), two runs of the same seed produce the
same fault timeline — which is what lets the chaos harness assert
bitwise-identical results rather than merely "no crash". A driver
calls :meth:`FaultInjector.settle` between ops (:func:`run_chaos`
does): a kill or drop due on a slot the background restarter still
holds waits for it, so whether it hits a live process does not depend
on how fast the machine bootstraps a worker.

Fault kinds
-----------
``kill``
    SIGKILL one replica process and reap it; the next send to its pipe
    fails deterministically.
``drop``
    Close the coordinator-side pipe of one replica (the process
    survives, orphaned) — the torn-pipe/EOF failure mode.
``slow``
    Arm one replica so its next search reply is delayed by
    ``duration`` seconds (the payload carries a ``fault_sleep`` the
    worker honors before answering) — the timeout failure mode.
``bootstrap``
    Arm ``count`` consecutive bootstrap failures for one replica slot:
    each (re)spawn of that slot dies during bootstrap with an injected
    error, which is how a partition is held fully down.

:func:`run_chaos` is the harness behind ``repro cluster chaos``: it
replays a randomized cluster-vs-pool workload (the same shape as the
110-op equivalence suite) under a plan and reports kills survived,
failovers, degraded reads, result mismatches, and hung requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import InvalidParameterError
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.cluster.coordinator import ClusterPool
    from repro.datasets.collection import SetCollection

#: Fault kinds a plan may schedule.
KILL = "kill"
DROP = "drop"
SLOW = "slow"
BOOTSTRAP = "bootstrap"

_KINDS = (KILL, DROP, SLOW, BOOTSTRAP)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` against replica
    ``(partition, replica)`` right before op number ``at_op``."""

    at_op: int
    kind: str
    partition: int
    replica: int
    #: Seconds a ``slow`` reply is delayed (ignored otherwise).
    duration: float = 0.0
    #: Consecutive spawn failures a ``bootstrap`` fault arms.
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(
                f"unknown fault kind {self.kind!r} (one of {_KINDS})"
            )
        if self.at_op < 0:
            raise InvalidParameterError("at_op must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule (events sorted by ``at_op``)."""

    events: tuple[FaultEvent, ...]
    seed: int = 0

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        ops: int,
        partitions: int,
        replicas: int = 1,
        kills: int = 3,
        drops: int = 0,
        slows: int = 0,
        bootstrap_failures: int = 0,
        slow_duration: float = 1.0,
        bootstrap_count: int = 1,
    ) -> "FaultPlan":
        """Draw a schedule from a seeded generator.

        Events land on distinct op indices in the middle 80% of the
        workload (faults at op 0 would race bootstrap; faults at the
        very end would go unobserved), targeting a replica drawn
        uniformly per event. The same arguments always produce the
        same plan.
        """
        if ops < 2:
            raise InvalidParameterError("ops must be >= 2")
        rng = make_rng(seed)
        total = kills + drops + slows + bootstrap_failures
        lo, hi = max(1, ops // 10), max(2, ops - ops // 10)
        slots = list(range(lo, hi))
        if total > len(slots):
            raise InvalidParameterError(
                f"{total} faults do not fit in {len(slots)} op slots"
            )
        chosen = sorted(
            int(i) for i in rng.choice(slots, size=total, replace=False)
        )
        kinds = (
            [KILL] * kills
            + [DROP] * drops
            + [SLOW] * slows
            + [BOOTSTRAP] * bootstrap_failures
        )
        order = rng.permutation(total)
        events = []
        for at_op, pick in zip(chosen, order):
            kind = kinds[int(pick)]
            events.append(
                FaultEvent(
                    at_op=at_op,
                    kind=kind,
                    partition=int(rng.integers(partitions)),
                    replica=int(rng.integers(replicas)),
                    duration=slow_duration if kind == SLOW else 0.0,
                    count=bootstrap_count if kind == BOOTSTRAP else 1,
                )
            )
        return cls(events=tuple(events), seed=seed)

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in _KINDS}
        for event in self.events:
            out[event.kind] += 1
        return out


class FaultInjector:
    """Replays a :class:`FaultPlan` against a live cluster.

    Pass one to ``ClusterPool(fault_injector=...)``; the coordinator
    drives it from three hook points:

    * :meth:`begin_op` — top of every search/mutation (under the
      coordinator lock): fires due kills/drops and arms due
      slow/bootstrap faults;
    * :meth:`payload_faults` — while building one replica's scatter
      payload: drains an armed slow fault into ``fault_sleep``;
    * :meth:`spawn_faults` — while building one replica's
      :class:`~repro.cluster.messages.WorkerSpec`: drains one armed
      bootstrap failure into the spec's ``faults``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._pending = sorted(plan.events, key=lambda e: e.at_op)
        self._op = 0
        #: (partition, replica) -> seconds to delay the next reply.
        self._slow: dict[tuple[int, int], float] = {}
        #: (partition, replica) -> bootstrap failures still to inject.
        self._bootstrap: dict[tuple[int, int], int] = {}
        self.fired: list[FaultEvent] = []

    # -- coordinator hook points -------------------------------------------

    def begin_op(self, pool: "ClusterPool") -> None:
        """Fire every event scheduled at or before the current op."""
        op = self._op
        self._op += 1
        while self._pending and self._pending[0].at_op <= op:
            event = self._pending.pop(0)
            self._fire(pool, event)
            self.fired.append(event)

    def settle(self, pool: "ClusterPool", timeout: float) -> None:
        """Wait, up to ``timeout`` seconds, until no kill or drop due at
        the next op targets a slot the background restarter holds.

        Called between ops, outside the coordinator lock (the restarter
        needs it to finish). A fault fired on a slot mid-restart
        dissolves, so without this the timeline would depend on the
        machine's speed, not only on the seed.
        """
        deadline = time.monotonic() + timeout
        for event in self._pending:
            if event.at_op > self._op:
                break
            if event.kind not in (KILL, DROP):
                continue
            handle = pool.replica_handle(event.partition, event.replica)
            while (
                handle is not None
                and handle.restarting
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)

    def payload_faults(
        self, partition: int, replica: int
    ) -> dict[str, Any] | None:
        delay = self._slow.pop((partition, replica), None)
        if delay is None:
            return None
        return {"fault_sleep": delay}

    def spawn_faults(
        self, partition: int, replica: int
    ) -> dict[str, Any] | None:
        left = self._bootstrap.get((partition, replica), 0)
        if left <= 0:
            return None
        self._bootstrap[(partition, replica)] = left - 1
        return {"bootstrap_fail": True}

    # -- firing -------------------------------------------------------------

    def _fire(self, pool: "ClusterPool", event: FaultEvent) -> None:
        key = (event.partition, event.replica)
        if event.kind == SLOW:
            self._slow[key] = event.duration
            return
        if event.kind == BOOTSTRAP:
            self._bootstrap[key] = (
                self._bootstrap.get(key, 0) + event.count
            )
            return
        handle = pool.replica_handle(event.partition, event.replica)
        if handle is None or handle.restarting:
            return  # slot mid-restart: the fault dissolves harmlessly
        if event.kind == KILL:
            process = handle.process
            if process is not None and process.is_alive():
                process.kill()
                process.join()  # reap before the op: the next send
                # fails deterministically instead of racing the death
        elif event.kind == DROP:
            conn = handle.conn
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        fired = {kind: 0 for kind in _KINDS}
        for event in self.fired:
            fired[event.kind] += 1
        return {
            "seed": self.plan.seed,
            "scheduled": self.plan.counts(),
            "fired": fired,
            "unfired": len(self._pending),
        }


# -- the chaos harness ------------------------------------------------------


def chaos_ops(
    rng, base: "SetCollection", count: int, *, alphas=(0.7, 0.9)
) -> list[tuple]:
    """A feasible randomized op mix (the 110-op equivalence shape):
    ~half queries alternating ``alphas``, ~half mutations touching only
    live names."""
    live = [base.name_of(i) for i in base.ids()]
    vocab_pool = sorted(base.vocabulary) + [
        f"fresh_token_{i}" for i in range(80)
    ]
    queries = [frozenset(base[i]) for i in base.ids()]
    ops: list[tuple] = []
    fresh = 0
    alpha_flip = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5:
            alpha = alphas[alpha_flip % len(alphas)]
            alpha_flip += 1
            if rng.random() < 0.3:
                size = int(rng.integers(2, 7))
                query = frozenset(
                    str(t)
                    for t in rng.choice(vocab_pool, size=size, replace=False)
                )
            else:
                query = queries[int(rng.integers(len(queries)))]
            ops.append(("query", query, alpha))
        elif roll < 0.75 or len(live) <= 5:
            name = f"ins_{fresh}"
            fresh += 1
            size = int(rng.integers(1, 8))
            tokens = tuple(
                str(t)
                for t in rng.choice(vocab_pool, size=size, replace=False)
            )
            ops.append(("insert", name, tokens))
            live.append(name)
        elif roll < 0.9:
            name = str(live.pop(int(rng.integers(len(live)))))
            ops.append(("delete", name, None))
        else:
            name = str(live[int(rng.integers(len(live)))])
            size = int(rng.integers(1, 8))
            tokens = tuple(
                str(t)
                for t in rng.choice(vocab_pool, size=size, replace=False)
            )
            ops.append(("replace", name, tokens))
    return ops


def run_chaos(
    collection: "SetCollection",
    substrate: dict[str, Any],
    *,
    plan: FaultPlan,
    workers: int = 2,
    replicas: int = 2,
    ops: int = 110,
    k: int = 10,
    alphas: Sequence[float] = (0.7, 0.9),
    seed: int = 31,
    request_timeout: float = 30.0,
    hang_budget: float | None = None,
    start_method: str = "spawn",
) -> dict[str, Any]:
    """Replay the randomized cluster-vs-pool workload under a fault
    plan; every non-degraded answer must match the single-process
    baseline bitwise.

    Returns a JSON-ready report. ``mismatches`` counts non-degraded
    queries whose ids/scores/theta_k diverged from the baseline (the
    exactness gate); ``hung_requests`` counts ops slower than
    ``hang_budget`` seconds (default: ``2 * request_timeout + 5`` — a
    failover may legitimately burn one receive timeout, but nothing
    may block past its deadline's order of magnitude).
    """
    from repro.cluster.coordinator import ClusterPool
    from repro.cluster.worker import substrate_from_descriptor
    from repro.service.pool import EnginePool
    from repro.store.mutable import MutableSetCollection

    if hang_budget is None:
        hang_budget = 2.0 * request_timeout + 5.0
    rng = make_rng(seed)
    workload = chaos_ops(rng, collection, ops, alphas=tuple(alphas))
    injector = FaultInjector(plan)

    pool_index, pool_sim = substrate_from_descriptor(
        substrate, collection.vocabulary
    )
    cluster_index, cluster_sim = substrate_from_descriptor(
        substrate, collection.vocabulary
    )
    baseline = EnginePool(
        MutableSetCollection(collection),
        pool_index,
        pool_sim,
        alpha=0.8,
        shards=workers,
    )
    queries = mutations = degraded = mismatches = hung = 0
    failures: list[str] = []
    max_seconds = 0.0
    try:
        with ClusterPool(
            MutableSetCollection(collection),
            cluster_index,
            cluster_sim,
            alpha=0.8,
            workers=workers,
            replicas=replicas,
            substrate=substrate,
            start_method=start_method,
            request_timeout=request_timeout,
            fault_injector=injector,
        ) as cluster:
            for position, op in enumerate(workload):
                injector.settle(cluster, request_timeout)
                watch_started = time.monotonic()
                kind = op[0]
                try:
                    if kind == "query":
                        _, query, alpha = op
                        queries += 1
                        got = cluster.search(query, k, alpha=alpha)
                        expected = baseline.search(query, k, alpha=alpha)
                        if got.degraded:
                            degraded += 1
                        elif (
                            got.ids() != expected.ids()
                            or got.scores() != expected.scores()
                            or got.theta_k != expected.theta_k
                        ):
                            mismatches += 1
                            failures.append(
                                f"op {position}: non-degraded result "
                                f"diverged from baseline"
                            )
                    elif kind == "insert":
                        _, name, tokens = op
                        mutations += 1
                        cluster.insert(tokens, name=name)
                        baseline.insert(tokens, name=name)
                    elif kind == "delete":
                        _, name, _ = op
                        mutations += 1
                        cluster.delete(name)
                        baseline.delete(name)
                    else:
                        _, name, tokens = op
                        mutations += 1
                        cluster.replace(name, tokens)
                        baseline.replace(name, tokens)
                except Exception as exc:  # noqa: BLE001 — report, not die
                    failures.append(
                        f"op {position} ({kind}): "
                        f"{type(exc).__name__}: {exc}"
                    )
                elapsed = time.monotonic() - watch_started
                max_seconds = max(max_seconds, elapsed)
                if elapsed > hang_budget:
                    hung += 1
            # Victims still re-bootstrapping count once they are back.
            deadline = time.monotonic() + request_timeout
            while time.monotonic() < deadline and any(
                slot["restarting"] for slot in cluster.liveness()
            ):
                time.sleep(0.01)
            fleet = cluster.cluster_metrics().rollup()
    finally:
        baseline.shutdown()
    return {
        "benchmark": "cluster_chaos",
        "num_sets": len(collection),
        "ops": len(workload),
        "queries": queries,
        "mutations": mutations,
        "workers": workers,
        "replicas": replicas,
        "k": k,
        "seed": seed,
        "request_timeout": request_timeout,
        "hang_budget": round(hang_budget, 3),
        "faults": injector.summary(),
        "degraded_queries": degraded,
        "mismatches": mismatches,
        "hung_requests": hung,
        "request_failures": len(failures),
        "failure_details": failures[:10],
        "max_op_seconds": round(max_seconds, 3),
        "restarts": fleet.get("restarts", 0),
        "failovers": fleet.get("failovers", 0),
        "worker_timeouts": fleet.get("worker_timeouts", 0),
        "worker_crashes": fleet.get("worker_crashes", 0),
        "ok": not failures and mismatches == 0 and hung == 0,
    }


def format_chaos_report(report: dict[str, Any]) -> list[str]:
    """Human-readable lines for a :func:`run_chaos` report."""
    fired = report["faults"]["fired"]
    lines = [
        (
            f"cluster chaos — {report['ops']} ops over "
            f"{report['workers']} partitions x {report['replicas']} "
            f"replicas, seed {report['seed']}"
        ),
        (
            f"faults fired: {fired.get(KILL, 0)} kills, "
            f"{fired.get(DROP, 0)} drops, {fired.get(SLOW, 0)} slow, "
            f"{fired.get(BOOTSTRAP, 0)} bootstrap"
        ),
        (
            f"recovered: {report['restarts']} restarts, "
            f"{report['failovers']} failovers, "
            f"{report['worker_timeouts']} timeouts, "
            f"{report['worker_crashes']} crashes detected"
        ),
        (
            f"results: {report['queries']} queries "
            f"({report['degraded_queries']} degraded, "
            f"{report['mismatches']} mismatches), "
            f"{report['hung_requests']} hung, "
            f"{report['request_failures']} failed, "
            f"max op {report['max_op_seconds']}s"
        ),
        f"verdict: {'OK' if report['ok'] else 'FAILED'}",
    ]
    return lines
