"""The engine's differential-testing harness against its oracles.

Algorithm 2 verifies a survivor in one of two ways: per candidate
(``cache_view`` + ``build_graph`` + solver), the only way for
similarities without an embedding matrix, or through the columnar fast
path (one batched matmul and one batched Lemma-8 initial check per
phase, column-gather matrices for the sets that pass it, the same
solver) — see :mod:`repro.core.fastpath_verify`. Exactness bugs in the
Hungarian/pruning interplay are subtle, so the engine is pinned to
:class:`~tests.core.refinement_oracle.ReferenceEngine` — heap drain,
per-tuple refinement, per-candidate verification — by a randomized
sweep: >= 10 seeds x 2 alphas x
the ablation grid over ``use_no_em`` / ``use_em_early_termination`` /
``exhaustive_verification``, each with a fresh shared threshold and
with one already raised to the answer's k-th score (as if another
shard had found it first), asserting bitwise-identical result entries
(unresolved, i.e. raw ``VerifiedEntry`` content), every stats counter,
and ``theta_lb`` trajectories, plus a direct ``postprocess``-level
comparison of ``VerifiedEntry`` lists with and without the injected
verifier. ``observed_edges`` / ``discarded_edges`` differ from the
oracle by design (trajectory-based counting) and are out of scope here.

The cluster leg of the harness — a worker fleet against an in-process
pool and brute force — lives in
``tests/cluster/test_engine_equivalence.py`` next to the cluster
fixtures.
"""

import itertools
import time

import pytest

from repro.core import FilterConfig, GlobalThreshold, SearchStats, ThetaLB, TopKList
from repro.core.fastpath import ColumnarPartition
from repro.core.fastpath_verify import (
    ColumnarVerifier,
    supports_columnar_verify,
)
from repro.core.postprocessing import postprocess
from repro.index import InvertedIndex, token_table_for
from repro.service.pool import merge_results
from repro.utils.rng import make_rng
from tests.core.refinement_oracle import (
    ENGINES,
    POOLS,
    refine,
    survivors_of,
)

K = 10
ALPHAS = (0.7, 0.9)
SEEDS = range(10)

#: The ablation grid: every combination of the three verification
#: filters.
GRID = [
    {
        "use_no_em": no_em,
        "use_em_early_termination": early,
        "exhaustive_verification": exhaustive,
    }
    for no_em, early, exhaustive in itertools.product(
        (True, False), repeat=3
    )
]
#: Where each cell's shared threshold starts: 0 is a fresh one, 1 one
#: raised to the k-th score of the reference engine's unconstrained
#: answer.
HEAD_STARTS = (0, 1)

#: Counters that must agree bitwise with the oracle. The edge counters
#: are excluded (trajectory-based in the refinement engine).
COUNTERS = (
    "stream_tuples",
    "candidates",
    "pruned_first_sight",
    "pruned_bucket",
    "bucket_moves",
    "no_em_accepted",
    "no_em_discarded",
    "em_early_terminated",
    "em_initial_pruned",
    "em_full",
    "em_label_updates",
    "resolution_em",
)


class RecordingThreshold(GlobalThreshold):
    """A shared threshold that logs every published ``theta_lb``."""

    def __init__(self, initial: float = 0.0) -> None:
        super().__init__(initial)
        self.trajectory: list[tuple[float, float]] = []

    def raise_to(self, candidate: float) -> float:
        value = super().raise_to(candidate)
        self.trajectory.append((candidate, value))
        return value


def sweep_queries(collection, seed):
    """One deterministic query per seed, alternating between an existing
    set and a random vocabulary mix (occasionally with an
    out-of-vocabulary token) so both query shapes cover every cell."""
    rng = make_rng(1000 + seed)
    base = frozenset(collection[int(rng.integers(len(collection)))])
    vocab = sorted(collection.vocabulary)
    size = int(rng.integers(3, 8))
    mixed = frozenset(
        str(t) for t in rng.choice(vocab, size=size, replace=False)
    )
    if seed % 3 == 0:
        mixed = mixed | {f"oov_sweep_{seed}"}
    return (base,) if seed % 2 else (mixed,)


def counters_of(stats: SearchStats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in COUNTERS}


def entry_tuple(entry):
    return (
        entry.set_id,
        entry.score,
        entry.exact,
        entry.lower_bound,
        entry.upper_bound,
    )


def build(stack, engine, **kwargs):
    """The engine (``"columnar"``) or its oracle (``"reference"``) over
    ``stack``'s substrate, at alpha 0.8."""
    return ENGINES[engine](
        stack.collection, stack.index, stack.sim, alpha=0.8, **kwargs
    )


@pytest.fixture(scope="module")
def engines(tiny_opendata):
    """One warm engine per (grid cell, engine) pair."""
    built = {}
    for cell, engine in itertools.product(
        range(len(GRID)), ("reference", "columnar")
    ):
        built[cell, engine] = build(
            tiny_opendata, engine,
            config=FilterConfig.koios().without(**GRID[cell]),
        )
    return built


class TestDifferentialSweep:
    @pytest.mark.parametrize("head_start", HEAD_STARTS)
    @pytest.mark.parametrize("cell", range(len(GRID)))
    def test_grid_cell_bitwise_across_seeds(
        self, tiny_opendata, engines, cell, head_start
    ):
        reference = engines[cell, "reference"]
        columnar = engines[cell, "columnar"]
        assert supports_columnar_verify(tiny_opendata.sim)
        compared = raised = 0
        for seed in SEEDS:
            for alpha in ALPHAS:
                for query in sweep_queries(tiny_opendata.collection, seed):
                    context = (cell, head_start, seed, alpha, sorted(query))
                    level = 0.0
                    if head_start:
                        level = reference.search(
                            query, K, alpha=alpha, resolve_scores=False
                        ).theta_k
                    raised += level > 0.0
                    ref_theta = RecordingThreshold(level)
                    col_theta = RecordingThreshold(level)
                    # resolve_scores=False keeps No-EM accepts unresolved,
                    # i.e. the entries are the raw VerifiedEntry content.
                    expected = reference.search(
                        query,
                        K,
                        alpha=alpha,
                        resolve_scores=False,
                        shared_threshold=ref_theta,
                    )
                    got = columnar.search(
                        query,
                        K,
                        alpha=alpha,
                        resolve_scores=False,
                        shared_threshold=col_theta,
                    )
                    assert [entry_tuple(e) for e in got.entries] == [
                        entry_tuple(e) for e in expected.entries
                    ], context
                    assert got.theta_k == expected.theta_k, context
                    assert (
                        col_theta.trajectory == ref_theta.trajectory
                    ), context
                    assert (
                        counters_of(got.stats) == counters_of(expected.stats)
                    ), context
                    compared += 1
        assert compared == len(SEEDS) * len(ALPHAS)
        assert raised == (compared if head_start else 0)


class TestPartitionedAndBudgeted:
    def test_three_partitions_share_one_threshold(self, tiny_opendata):
        """The sweep's comparison on a 3-shard pool (§VI's partitions):
        shards run one after another against one shared ``theta_lb``,
        so later shards verify against a threshold earlier ones raised.
        The shard engines are driven directly, one stream drained by the
        first, so No-EM accepts are compared raw (bounds, not
        resolved scores)."""
        pools = {
            engine: POOLS[engine](
                tiny_opendata.collection,
                tiny_opendata.index,
                tiny_opendata.sim,
                alpha=0.8,
                shards=3,
            )
            for engine in ("reference", "columnar")
        }
        assert pools["columnar"].num_shards == 3
        pruned_by_shared = 0
        for seed in SEEDS:
            for alpha in ALPHAS:
                for query in sweep_queries(tiny_opendata.collection, seed):
                    context = (seed, alpha, sorted(query)[:3])
                    outcomes = {}
                    for engine, pool in pools.items():
                        shards = pool._engines
                        stream = shards[0].drain(query, alpha=alpha)
                        shared = RecordingThreshold()
                        result = merge_results(
                            [
                                shard.search(
                                    query,
                                    K,
                                    alpha=alpha,
                                    resolve_scores=False,
                                    stream=stream,
                                    shared_threshold=shared,
                                )
                                for shard in shards
                            ],
                            K,
                        )
                        outcomes[engine] = (
                            [entry_tuple(e) for e in result.entries],
                            shared.trajectory,
                            counters_of(result.stats),
                            [counters_of(p) for p in result.partition_stats],
                        )
                    assert outcomes["columnar"] == outcomes["reference"], context
                    per_partition = outcomes["columnar"][3]
                    pruned_by_shared += sum(
                        p["em_early_terminated"] + p["no_em_discarded"]
                        for p in per_partition[1:]
                    )
        assert pruned_by_shared > 0  # later partitions did use the threshold

    @pytest.mark.parametrize("engine", ("reference", "columnar"))
    def test_budget_expiring_inside_verification(self, tiny_opendata, engine):
        """A ``time_budget`` that runs out among the matchings: the
        search still answers ``timed_out`` with what it had verified,
        and promptly — not after finishing the phase."""
        config = FilterConfig.koios().without(
            use_no_em=False,
            use_em_early_termination=False,
            exhaustive_verification=True,
        )
        built = build(tiny_opendata, engine, config=config)
        query = frozenset(tiny_opendata.collection[3])
        built.search(query, K, alpha=0.7)  # warm
        started = time.perf_counter()
        full = built.search(query, K, alpha=0.7)
        full_seconds = time.perf_counter() - started
        assert not full.timed_out
        assert full.stats.em_full == full.stats.postprocessed > 20
        phases = full.stats.timer.totals
        budget = phases["refinement"] + 0.25 * phases["postprocessing"]

        started = time.perf_counter()
        partial = built.search(query, K, alpha=0.7, time_budget=budget)
        seconds = time.perf_counter() - started
        assert partial.timed_out
        assert 0 < partial.stats.em_full < full.stats.em_full
        assert seconds < 0.75 * full_seconds, (seconds, full_seconds)


class TestPostprocessLevelDifferential:
    def test_verified_entry_lists_bitwise_identical(self, tiny_opendata):
        """Drive ``postprocess`` directly — same survivors, same theta
        state — with and without the injected columnar verifier and
        compare the produced ``VerifiedEntry`` lists field by field."""
        collection = tiny_opendata.collection
        engine = tiny_opendata.engine(alpha=0.8)
        inverted = InvertedIndex(collection)
        table = token_table_for(collection)
        rng = make_rng(7)
        compared_entries = 0
        for seed in range(6):
            query = frozenset(collection[int(rng.integers(len(collection)))])
            alpha = ALPHAS[seed % len(ALPHAS)]
            stream = engine.drain(query, alpha=alpha)
            outcomes = []
            for use_verifier in (False, True):
                llb = TopKList(K)
                theta = ThetaLB(llb)
                stats = SearchStats()
                output = refine(
                    query,
                    stream,
                    inverted,
                    collection,
                    theta,
                    stats,
                    FilterConfig.koios(),
                )
                verifier = None
                if use_verifier:
                    verifier = ColumnarVerifier(
                        query, collection, table, tiny_opendata.sim, alpha,
                        ColumnarPartition.build(inverted, table),
                    )
                entries = postprocess(
                    query,
                    collection,
                    survivors_of(output.survivors),
                    tiny_opendata.sim,
                    alpha,
                    K,
                    theta,
                    stats,
                    FilterConfig.koios(),
                    sim_cache=output.sim_cache,
                    verifier=verifier,
                )
                outcomes.append((entries, counters_of(stats)))
            (ref_entries, ref_stats), (col_entries, col_stats) = outcomes
            assert col_entries == ref_entries, seed  # frozen dataclasses
            assert col_stats == ref_stats, seed
            compared_entries += len(ref_entries)
        assert compared_entries > 0

    def test_uncached_cells_route_through_reference_fallback(
        self, tiny_opendata
    ):
        """The matmul drift guard: with an empty similarity cache every
        above-alpha cell is uncached, so every candidate with a
        non-trivial matrix must take the reference fallback — and the
        entries still match the reference engine bitwise, because the
        fallback *is* the reference computation."""
        collection = tiny_opendata.collection
        engine = tiny_opendata.engine(alpha=0.8)
        inverted = InvertedIndex(collection)
        table = token_table_for(collection)
        query = frozenset(collection[2])
        alpha = 0.7
        stream = engine.drain(query, alpha=alpha)
        outcomes = []
        fallback_sizes = []
        for use_verifier in (False, True):
            theta = ThetaLB(TopKList(K))
            stats = SearchStats()
            output = refine(
                query,
                stream,
                inverted,
                collection,
                theta,
                stats,
                FilterConfig.koios(),
            )
            verifier = None
            if use_verifier:
                verifier = ColumnarVerifier(
                    query, collection, table, tiny_opendata.sim, alpha,
                    ColumnarPartition.build(inverted, table),
                )
            entries = postprocess(
                query,
                collection,
                survivors_of(output.survivors),
                tiny_opendata.sim,
                alpha,
                K,
                theta,
                stats,
                FilterConfig.koios(),
                sim_cache={},  # nothing cached: all hot cells suspicious
                verifier=verifier,
            )
            outcomes.append(entries)
            if verifier is not None:
                fallback_sizes.append(len(verifier._fallback))
        assert outcomes[1] == outcomes[0]
        assert fallback_sizes[0] > 0  # the guard actually engaged
