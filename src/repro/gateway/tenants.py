"""Multi-tenant collections: the gateway's tenant registry.

One *tenant* is one named, fully isolated serving stack: its own
collection (JSON/CSV/snapshot), its own optional write-ahead log, its
own engine pool and scheduler, its own quotas and admission queue — and
its own cache *namespace* inside the gateway's one shared
:class:`~repro.service.cache.ResultCache`. Sharing the cache pools its
capacity across tenants while the namespace tag in every key (see
``QueryScheduler(cache_namespace=...)``) keeps entries unreachable
across tenant boundaries: tenant A's mutations bump only A's version
component, so B's warm results survive untouched.

The registry is built from a JSON config file::

    {
      "cache_size": 4096,            # shared across tenants (0 = off)
      "max_inflight": 8,             # global admission cap
      "tenants": [
        {
          "name": "alpha",
          "collection": "alpha.snap",      # .json / .csv / .snap
          "wal": "alpha.wal",              # optional durability
          "alpha": 0.8,                    # + jaccard/dim/iub_mode
          "shards": 1, "workers": 1, "max_batch": 8,
          "cluster_workers": 2,            # optional multi-process backend
          "qps": 50, "burst": 10,          # search token bucket
          "mutations_per_second": 5, "mutation_burst": 5,
          "max_queue_depth": 64,           # admission queue bound
          "max_inflight": 4,               # optional per-tenant cap
          "auth_token": "s3cret",          # optional bearer token
          "slo": {"availability": 0.999,   # optional objectives (a
                  "latency_p99_ms": 250}   #  top-level "slo" block is
        }                                  #  the fleet-wide default)
      ]
    }

Malformed configuration raises
:class:`~repro.errors.TenantConfigError` before anything binds a port.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.core.bounds import PAPER, SAFE
from repro.errors import InvalidParameterError, TenantConfigError
from repro.gateway.quota import TenantQuota
from repro.obs.slo import SLOMonitor
from repro.service.bootstrap import ServingStack, build_serving_stack
from repro.service.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import QueryScheduler

#: Spec fields accepted from the config file (anything else is a loud
#: error — silently ignored keys hide typos like "pqs" forever).
_SPEC_KEYS = {
    "name", "collection", "wal", "alpha", "jaccard", "dim", "iub_mode", "shards", "workers", "max_batch", "qps", "burst",
    "mutations_per_second", "mutation_burst", "max_queue_depth",
    "max_inflight", "auth_token", "cluster_workers", "slo",
}


def _is_number(value: object) -> bool:
    """A JSON number; ``true``/``false`` are not (``True == 1``)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TenantSpec:
    """Everything the config file may say about one tenant."""

    name: str
    collection: str
    wal: str | None = None
    alpha: float = 0.8
    jaccard: bool = False
    dim: int = 64
    iub_mode: str = "paper"
    shards: int = 1
    workers: int = 1
    max_batch: int = 8
    qps: float | None = None
    burst: float | None = None
    mutations_per_second: float | None = None
    mutation_burst: float | None = None
    max_queue_depth: int = 64
    max_inflight: int | None = None
    auth_token: str | None = None
    #: Serve this tenant over a multi-process cluster backend with this
    #: many worker processes (None = in-process engine pool).
    cluster_workers: int | None = None
    #: SLO objectives (``{"availability": ..., "latency_p99_ms": ...,
    #: "latency_ratio": ...}``); None inherits the gateway-level "slo"
    #: block, or the monitor's defaults when neither is given.
    slo: Mapping | None = None

    def __post_init__(self) -> None:
        if self.slo is not None and not isinstance(self.slo, Mapping):
            raise TenantConfigError(
                f"tenant {self.name!r}: \"slo\" must be an object"
            )
        if not self.name or not isinstance(self.name, str):
            raise TenantConfigError("tenant needs a non-empty string name")
        if not self.collection:
            raise TenantConfigError(
                f"tenant {self.name!r} needs a collection path"
            )
        if not (_is_number(self.alpha) and 0.0 < self.alpha <= 1.0):
            self._reject("alpha", "must be a number in (0, 1]")
        if self.iub_mode not in (PAPER, SAFE):
            self._reject("iub_mode", f"must be {PAPER!r} or {SAFE!r}")
        for count_field in (
            "shards", "workers", "max_batch", "max_queue_depth",
            "max_inflight", "cluster_workers",
        ):
            value = getattr(self, count_field)
            if value is None and count_field in (
                "max_inflight", "cluster_workers"
            ):
                continue
            if not (_is_number(value) and isinstance(value, int)
                    and value >= 1):
                self._reject(count_field, "must be an integer >= 1")
        for rate_field in (
            "qps", "burst", "mutations_per_second", "mutation_burst"
        ):
            value = getattr(self, rate_field)
            if value is not None and not (_is_number(value) and value > 0):
                self._reject(
                    rate_field, "must be a positive number (omit it for "
                    "unlimited)",
                )

    def _reject(self, field_name: str, rule: str) -> None:
        value = getattr(self, field_name)
        raise TenantConfigError(
            f"tenant {self.name!r}: {field_name} {rule}, got {value!r}"
        )

    @classmethod
    def from_obj(cls, obj: object) -> "TenantSpec":
        if not isinstance(obj, dict):
            raise TenantConfigError(
                f"each tenant must be a JSON object, got {type(obj).__name__}"
            )
        unknown = set(obj) - _SPEC_KEYS
        if unknown:
            raise TenantConfigError(
                f"unknown tenant config keys: {sorted(unknown)} "
                f"(known: {sorted(_SPEC_KEYS)})"
            )
        try:
            return cls(**obj)
        except TypeError as exc:
            raise TenantConfigError(f"bad tenant config: {exc}") from exc


@dataclass
class Tenant:
    """One live tenant: its serving stack plus gateway-side state."""

    spec: TenantSpec
    stack: ServingStack
    quota: TenantQuota
    metrics: ServiceMetrics = field(init=False)

    def __post_init__(self) -> None:
        self.metrics = self.scheduler.metrics

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def scheduler(self) -> QueryScheduler:
        return self.stack.scheduler

    def stats(self) -> dict:
        """This tenant's rollup row: the scheduler's metrics snapshot
        (which already carries accepted/rejected/shed/queue-depth and
        latency quantiles) plus backend identity."""
        snapshot = dict(self.metrics.snapshot())
        snapshot["tenant"] = self.name
        snapshot["slo_alerting"] = self.metrics.slo.alerting
        backend_stats = getattr(
            self.scheduler.pool, "stats_snapshot", None
        )
        if callable(backend_stats):
            snapshot["backend"] = backend_stats()
        return snapshot

    def close(self) -> None:
        self.stack.close()


class TenantRegistry:
    """The gateway's named-tenant table.

    Builds every tenant's stack up front (a gateway that cannot load a
    tenant should fail at start, not at first request) around one
    shared result cache, and owns their shutdown order on the way out.
    """

    def __init__(
        self,
        tenants: Iterable[Tenant],
        *,
        cache: ResultCache | None = None,
        max_inflight: int = 8,
    ) -> None:
        self._tenants: dict[str, Tenant] = {}
        for tenant in tenants:
            if tenant.name in self._tenants:
                raise TenantConfigError(
                    f"duplicate tenant name: {tenant.name!r}"
                )
            self._tenants[tenant.name] = tenant
        if not self._tenants:
            raise TenantConfigError("gateway needs at least one tenant")
        self.cache = cache
        self.max_inflight = max_inflight

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    @property
    def names(self) -> list[str]:
        return list(self._tenants)

    def get(self, name: str) -> Tenant | None:
        return self._tenants.get(name)

    @property
    def sole_tenant(self) -> Tenant | None:
        """The implicit default when exactly one tenant is configured
        (single-tenant deployments shouldn't need a ``hello``)."""
        if len(self._tenants) == 1:
            return next(iter(self._tenants.values()))
        return None

    def auth_tokens(self) -> dict[str, str]:
        """Per-tenant bearer tokens declared in the config."""
        return {
            tenant.name: tenant.spec.auth_token
            for tenant in self
            if tenant.spec.auth_token is not None
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drain every tenant's scheduler and flush/close its WAL."""
        for tenant in self:
            tenant.close()

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        config: Mapping | str | Path,
        *,
        base_dir: str | Path | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "TenantRegistry":
        """Build a registry from a config mapping or a JSON file path.

        Relative collection/WAL paths resolve against ``base_dir``
        (defaulting to the config file's directory, so a config ships
        next to its snapshots).
        """
        if isinstance(config, (str, Path)):
            path = Path(config)
            if base_dir is None:
                base_dir = path.parent
            try:
                config = json.loads(path.read_text(encoding="utf-8"))
            except OSError as exc:
                raise TenantConfigError(
                    f"cannot read tenant config {path}: {exc}"
                ) from exc
            except json.JSONDecodeError as exc:
                raise TenantConfigError(
                    f"tenant config {path} is not valid JSON: {exc}"
                ) from exc
        if not isinstance(config, Mapping):
            raise TenantConfigError("tenant config must be a JSON object")
        known = {"tenants", "cache_size", "max_inflight", "slo"}
        unknown = set(config) - known
        if unknown:
            raise TenantConfigError(
                f"unknown gateway config keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        specs_obj = config.get("tenants")
        if not isinstance(specs_obj, list) or not specs_obj:
            raise TenantConfigError(
                'tenant config needs a non-empty "tenants" list'
            )
        specs = [TenantSpec.from_obj(obj) for obj in specs_obj]
        slo_default = config.get("slo")
        if slo_default is not None and not isinstance(slo_default, Mapping):
            raise TenantConfigError('gateway "slo" must be an object')
        cache_size = config.get("cache_size", 1024)
        if not isinstance(cache_size, int) or isinstance(cache_size, bool):
            raise TenantConfigError("cache_size must be an integer")
        max_inflight = config.get("max_inflight", 8)
        if (
            not isinstance(max_inflight, int)
            or isinstance(max_inflight, bool)
            or max_inflight < 1
        ):
            raise TenantConfigError("max_inflight must be an integer >= 1")
        return cls.build(
            specs,
            cache_size=cache_size,
            max_inflight=max_inflight,
            base_dir=base_dir,
            clock=clock,
            slo_default=slo_default,
        )

    @classmethod
    def build(
        cls,
        specs: Iterable[TenantSpec],
        *,
        cache_size: int = 1024,
        max_inflight: int = 8,
        base_dir: str | Path | None = None,
        clock: Callable[[], float] = time.monotonic,
        slo_default: Mapping | None = None,
    ) -> "TenantRegistry":
        """Wire every spec into a live tenant around one shared cache."""
        cache = ResultCache(capacity=cache_size) if cache_size else None
        tenants = []
        try:
            for spec in specs:
                tenants.append(
                    build_tenant(spec, cache=cache, base_dir=base_dir,
                                 clock=clock, slo_default=slo_default)
                )
        except Exception:
            for tenant in tenants:
                tenant.close()
            raise
        return cls(tenants, cache=cache, max_inflight=max_inflight)


def _resolve(path: str, base_dir: str | Path | None) -> str:
    if base_dir is None:
        return path
    candidate = Path(path)
    if candidate.is_absolute():
        return path
    return str(Path(base_dir) / candidate)


def build_tenant(
    spec: TenantSpec,
    *,
    cache: ResultCache | None = None,
    base_dir: str | Path | None = None,
    clock: Callable[[], float] = time.monotonic,
    slo_default: Mapping | None = None,
) -> Tenant:
    """One tenant's full serving stack from its spec.

    The stack construction is the shared
    :func:`~repro.service.bootstrap.build_serving_stack` — byte-for-byte
    the pipeline ``repro serve`` uses, so a tenant behind the gateway
    answers exactly what a dedicated server over the same collection
    would. The tenant's name becomes its cache namespace. The SLO
    monitor shares the registry clock (the one the token buckets use),
    so tests drive quota refills and burn-rate windows together.
    """
    slo_spec = spec.slo if spec.slo is not None else slo_default
    try:
        monitor = SLOMonitor.from_spec(slo_spec, clock=clock)
    except InvalidParameterError as exc:
        raise TenantConfigError(
            f"tenant {spec.name!r}: bad slo spec: {exc}"
        ) from exc
    metrics = ServiceMetrics(slo=monitor)
    stack = build_serving_stack(
        _resolve(spec.collection, base_dir),
        alpha=spec.alpha,
        jaccard=spec.jaccard,
        dim=spec.dim,
        iub_mode=spec.iub_mode,
        shards=spec.shards,
        workers=spec.workers,
        max_batch=spec.max_batch,
        cache=cache,
        cache_size=None,
        wal_path=(
            None if spec.wal is None else _resolve(spec.wal, base_dir)
        ),
        cache_namespace=spec.name,
        cluster_workers=spec.cluster_workers,
        metrics=metrics,
    )
    quota = TenantQuota(
        search_rate=spec.qps,
        search_burst=spec.burst,
        mutation_rate=spec.mutations_per_second,
        mutation_burst=spec.mutation_burst,
        clock=clock,
    )
    return Tenant(spec=spec, stack=stack, quota=quota)
