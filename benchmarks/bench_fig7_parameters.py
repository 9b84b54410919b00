"""Fig. 7 — parameter analysis on the OpenData-like profile.

Sweeps (a) the number of partitions, (b) the element similarity threshold
alpha, and (c) the result size k, reporting mean response time, the
refinement/post-processing split, and (d) memory vs alpha.

Paper shapes: more partitions -> faster (shared theta_lb grows quicker);
higher alpha -> faster but slightly *more* memory (fewer stream tuples
converge to a smaller theta_lb, so more sets reach post-processing);
larger k -> counter-intuitively faster post-processing.
"""

import statistics

import pytest

from benchmarks.conftest import DEFAULT_ALPHA, DEFAULT_K, QUERY_SEED
from repro.datasets import QueryBenchmark
from repro.experiments import (
    format_series,
    koios_search_fn,
    parameter_sweep,
)
from repro.service import EnginePool

DATASET = "opendata"
SWEEP_QUERIES = 6

PARTITION_VALUES = [1, 2, 5, 10]
PARTITION_REPEATS = 5
ALPHA_VALUES = [0.7, 0.75, 0.8, 0.85, 0.9]
K_VALUES = [1, 5, 10, 20, 50]


@pytest.fixture(scope="module")
def sweep_benchmark(stacks):
    return QueryBenchmark.uniform(
        stacks[DATASET].collection, SWEEP_QUERIES, seed=QUERY_SEED
    )


def test_fig7a_partitions(benchmark, stacks, sweep_benchmark, report):
    """The paper runs partitions in parallel on 64 cores; to separate the
    algorithmic effect from Python's GIL we report the *simulated
    parallel* response time (serial time with the per-partition work
    replaced by the slowest partition). Partitions are the shards of an
    engine pool, searched one after another under one shared
    ``theta_lb``."""
    from repro.experiments import run_benchmark

    stack = stacks[DATASET]
    pools = {
        partitions: EnginePool(
            stack.collection, stack.index, stack.sim,
            alpha=DEFAULT_ALPHA, shards=partitions,
        )
        for partitions in PARTITION_VALUES
    }
    parallel_runs = {partitions: [] for partitions in PARTITION_VALUES}
    serial_runs = {partitions: [] for partitions in PARTITION_VALUES}
    # Passes interleave the partition counts and each point is the
    # median of its passes, so one slow pass on a busy machine does not
    # decide the shape.
    for _ in range(PARTITION_REPEATS):
        for partitions, pool in pools.items():
            records = run_benchmark(
                koios_search_fn(pool), sweep_benchmark, DEFAULT_K,
                method=f"partitions={partitions}", dataset_name=DATASET,
            )
            parallel_runs[partitions].append(
                sum(r.parallel_seconds for r in records) / len(records)
            )
            serial_runs[partitions].append(
                sum(r.seconds for r in records) / len(records)
            )
    parallel_series = [
        (partitions, statistics.median(runs))
        for partitions, runs in parallel_runs.items()
    ]
    serial_series = [
        (partitions, statistics.median(runs))
        for partitions, runs in serial_runs.items()
    ]

    pool = pools[PARTITION_VALUES[-1]]
    query = stack.collection[sweep_benchmark.all_query_ids()[0]]
    benchmark(pool.search, query, DEFAULT_K)

    report()
    report("Fig 7a: time vs number of partitions")
    report("  " + format_series("parallel response_s", parallel_series))
    report("  " + format_series("serial response_s (1 core)", serial_series))

    response = dict(parallel_series)
    # Shape: with parallel partitions the response time decreases.
    assert response[PARTITION_VALUES[-1]] <= response[1] * 1.1


def test_fig7b_and_7d_alpha(benchmark, stacks, sweep_benchmark, report):
    stack = stacks[DATASET]

    def make(alpha):
        return koios_search_fn(stack.engine(alpha=alpha))

    sweep = parameter_sweep(
        "alpha", ALPHA_VALUES, make, sweep_benchmark,
        k_for=lambda _: DEFAULT_K,
    )
    engine = stack.engine(alpha=ALPHA_VALUES[-1])
    query = stack.collection[sweep_benchmark.all_query_ids()[0]]
    benchmark(engine.search, query, DEFAULT_K)

    report()
    report("Fig 7b: time vs element similarity threshold (alpha)")
    report("  " + format_series("response_s", sweep.response))
    report("Fig 7d: memory vs alpha")
    report("  " + format_series("memory_mb", sweep.memory))

    response = dict(sweep.response)
    # Shape: the highest alpha is the fastest setting.
    assert response[ALPHA_VALUES[-1]] <= min(response.values()) * 1.25


def test_fig7c_k(benchmark, stacks, sweep_benchmark, report):
    stack = stacks[DATASET]
    engine = stack.engine(alpha=DEFAULT_ALPHA)

    def make(_k):
        return koios_search_fn(engine)

    sweep = parameter_sweep(
        "k", K_VALUES, make, sweep_benchmark, k_for=lambda k: k,
    )
    query = stack.collection[sweep_benchmark.all_query_ids()[0]]
    benchmark(engine.search, query, K_VALUES[-1])

    report()
    report("Fig 7c: time vs result size k")
    report("  " + format_series("response_s", sweep.response))
    report("  " + format_series("refinement_share", sweep.refinement_share))

    response = dict(sweep.response)
    # Shape: response time grows far sublinearly in k. (The paper even
    # observes a *decrease* on its corpora; on the synthetic corpus the
    # theta_lb-weakening effect of larger k dominates for tiny k because
    # a corpus query's own family makes theta_lb(k=1) ~ |Q| — see
    # EXPERIMENTS.md for the deviation discussion.)
    growth = response[K_VALUES[-1]] / max(response[K_VALUES[2]], 1e-9)
    k_growth = K_VALUES[-1] / K_VALUES[2]
    assert growth < k_growth, (growth, k_growth)
