"""Shared experiment runner.

Everything in the paper's evaluation is a loop of the same shape: build a
dataset, sample a query benchmark, run one or more searchers over it, and
aggregate per-query statistics into table rows or figure series. This
module provides that loop once, so each bench file only declares *what*
to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.config import FilterConfig
from repro.core.koios import KoiosSearchEngine, SearchResult
from repro.core.stats import POSTPROCESSING, REFINEMENT, SearchStats
from repro.datasets.benchmarks import QueryBenchmark
from repro.datasets.synthetic import SyntheticDataset
from repro.embedding.provider import VectorStore
from repro.index.vector_index import ExactCosineIndex
from repro.obs import timed
from repro.service.pool import EnginePool
from repro.sim.cosine import CosineSimilarity

#: A searcher under test: called with (query_tokens, k) -> SearchResult.
SearchFn = Callable[[frozenset, int], SearchResult]


@dataclass
class SearchStack:
    """A dataset wired to its vector store, token index, and similarity."""

    dataset: SyntheticDataset
    store: VectorStore
    index: ExactCosineIndex
    sim: CosineSimilarity

    @property
    def collection(self):
        return self.dataset.collection

    def engine(
        self,
        *,
        alpha: float = 0.8,
        config: FilterConfig | None = None,
    ) -> KoiosSearchEngine:
        return KoiosSearchEngine(
            self.dataset.collection,
            self.index,
            self.sim,
            alpha=alpha,
            config=config,
        )


def build_stack(dataset: SyntheticDataset, *, batch_size: int = 100) -> SearchStack:
    """Wire a synthetic dataset into the cosine search substrate.

    Mirrors §VIII-A3: one vector index per dataset over the tokens of the
    collection that have embeddings, probed in batches of 100.
    """
    store = VectorStore(dataset.provider, dataset.collection.vocabulary)
    index = ExactCosineIndex(store, dataset.provider, batch_size=batch_size)
    sim = CosineSimilarity(dataset.provider)
    return SearchStack(dataset=dataset, store=store, index=index, sim=sim)


@dataclass
class QueryRecord:
    """Per-query measurements of one searcher."""

    dataset: str
    method: str
    group: str
    query_id: int
    cardinality: int
    seconds: float
    refinement_seconds: float
    postproc_seconds: float
    memory_mb: float
    timed_out: bool
    stats: SearchStats
    result_ids: list[int] = field(default_factory=list)
    result_scores: list[float] = field(default_factory=list)
    partition_seconds: list[float] = field(default_factory=list)

    @property
    def parallel_seconds(self) -> float:
        """Response time if partitions ran fully in parallel: the serial
        time with the per-partition work (a pool's per-shard stats)
        replaced by the slowest partition — how the paper's multi-core
        testbed experiences a partitioned query, free of GIL
        artifacts."""
        if not self.partition_seconds:
            return self.seconds
        serial_partition_work = sum(self.partition_seconds)
        return self.seconds - serial_partition_work + max(
            self.partition_seconds
        )


def run_benchmark(
    search_fn: SearchFn,
    benchmark: QueryBenchmark,
    k: int,
    *,
    method: str,
    dataset_name: str,
) -> list[QueryRecord]:
    """Run ``search_fn`` over every benchmark query and record stats.

    Wall-clock ``seconds`` is measured around the call; phase and memory
    figures come from the result's :class:`SearchStats` (zero for
    searchers that do not report them).
    """
    records: list[QueryRecord] = []
    for group_label, query_id, tokens in benchmark:
        with timed() as watch:
            result = search_fn(tokens, k)
        elapsed = watch.seconds
        stats = result.stats
        records.append(
            QueryRecord(
                dataset=dataset_name,
                method=method,
                group=group_label,
                query_id=query_id,
                cardinality=len(tokens),
                seconds=elapsed,
                refinement_seconds=stats.timer.seconds(REFINEMENT),
                postproc_seconds=stats.timer.seconds(POSTPROCESSING),
                memory_mb=stats.memory.total_mb,
                timed_out=result.timed_out,
                stats=stats,
                result_ids=result.ids(),
                result_scores=result.scores(),
                partition_seconds=[
                    p.timer.total for p in result.partition_stats
                ],
            )
        )
    return records


def koios_search_fn(
    engine: KoiosSearchEngine | EnginePool,
    *,
    time_budget: float | None = None,
) -> SearchFn:
    """Adapt a Koios-style engine (or an engine pool) to the benchmark
    runner."""

    def run(tokens: frozenset, k: int) -> SearchResult:
        return engine.search(tokens, k, time_budget=time_budget)

    return run


# -- aggregation ----------------------------------------------------------


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def successful(records: Sequence[QueryRecord]) -> list[QueryRecord]:
    """Queries that finished within budget (the paper excludes timed-out
    queries from its averages)."""
    return [r for r in records if not r.timed_out]


def groups_in_order(records: Sequence[QueryRecord]) -> list[str]:
    """Distinct group labels in first-appearance order."""
    seen: dict[str, None] = {}
    for record in records:
        seen.setdefault(record.group, None)
    return list(seen)


def by_group(
    records: Sequence[QueryRecord],
) -> dict[str, list[QueryRecord]]:
    """Records bucketed by group label, first-appearance order kept."""
    out: dict[str, list[QueryRecord]] = {}
    for record in records:
        out.setdefault(record.group, []).append(record)
    return out


@dataclass(frozen=True)
class GroupSummary:
    """Aggregate of one (method, group) cell."""

    group: str
    queries: int
    timeouts: int
    mean_seconds: float
    mean_refinement_seconds: float
    mean_postproc_seconds: float
    mean_memory_mb: float
    mean_candidates: float
    mean_refinement_pruned: float
    mean_no_em: float
    mean_em_early_terminated: float
    mean_em_full: float

    @property
    def refinement_share(self) -> float:
        total = self.mean_refinement_seconds + self.mean_postproc_seconds
        if total == 0.0:
            return 0.0
        return self.mean_refinement_seconds / total

    @property
    def postprocessed(self) -> float:
        return self.mean_candidates - self.mean_refinement_pruned


def summarize_group(group: str, records: Sequence[QueryRecord]) -> GroupSummary:
    """Aggregate one group's records (timed-out queries excluded from
    means, counted in ``timeouts`` — the paper's convention)."""
    done = successful(records)
    return GroupSummary(
        group=group,
        queries=len(records),
        timeouts=sum(1 for r in records if r.timed_out),
        mean_seconds=mean(r.seconds for r in done),
        mean_refinement_seconds=mean(r.refinement_seconds for r in done),
        mean_postproc_seconds=mean(r.postproc_seconds for r in done),
        mean_memory_mb=mean(r.memory_mb for r in done),
        mean_candidates=mean(r.stats.candidates for r in done),
        mean_refinement_pruned=mean(r.stats.refinement_pruned for r in done),
        mean_no_em=mean(r.stats.no_em for r in done),
        mean_em_early_terminated=mean(
            r.stats.em_early_terminated for r in done
        ),
        mean_em_full=mean(
            r.stats.em_full + r.stats.resolution_em for r in done
        ),
    )


def summarize(records: Sequence[QueryRecord]) -> list[GroupSummary]:
    """One :class:`GroupSummary` per group, in first-appearance order."""
    grouped = by_group(records)
    return [
        summarize_group(group, grouped[group])
        for group in groups_in_order(records)
    ]


def overall_summary(records: Sequence[QueryRecord]) -> GroupSummary:
    """A single summary over all records regardless of group."""
    return summarize_group("all", list(records))
