"""The engine's equivalence contract against its oracle.

:class:`KoiosSearchEngine` must be *bitwise-identical* — ids, scores,
theta_k, bounds — to :class:`~tests.core.refinement_oracle.ReferenceEngine`
(heap drain, per-tuple refinement, per-candidate verification) on every
workload: across both iUB modes, every filter ablation, partitioned
engines, sharded pools, and a >= 100-op randomized mutation/query
interleaving at two alphas. The drain fast path must reproduce the heap drain's tuple
sequence exactly (order included), and the interning/CSR substrate must
agree with the dict-backed inverted index token for token.
"""

import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import FilterConfig, KoiosSearchEngine
from repro.core.fastpath import fast_drain
from repro.embedding import HashingEmbeddingProvider, VectorStore
from repro.index import (
    ExactCosineIndex,
    InvertedIndex,
    MaterializedTokenStream,
    TokenTable,
    token_table_for,
)
from repro.index import vector_index
from repro.service import EnginePool
from repro.store import MutableSetCollection
from repro.store.snapshot import build_substrate
from repro.utils.rng import make_rng
from tests.core.refinement_oracle import ReferenceEngine, ReferencePool

K = 10
ALPHAS = (0.7, 0.9)
OPS = 110
SEED = 43
SUBSTRATE = {
    "kind": "hashing-cosine",
    "dim": 32,
    "n_min": 3,
    "n_max": 5,
    "salt": "hashing-embedding",
    "batch_size": 100,
}

#: Every ablation the paper (and DESIGN.md) names, in the engine and
#: its oracle.
ABLATIONS = {
    "koios": FilterConfig.koios(),
    "koios-safe": FilterConfig.koios(iub_mode="safe"),
    "baseline": FilterConfig.baseline(),
    "baseline-plus": FilterConfig.baseline_plus(),
    "no-first-sight": FilterConfig.koios().without(use_first_sight_ub=False),
    "no-buckets": FilterConfig.koios().without(use_iub_buckets=False),
    "no-no-em": FilterConfig.koios().without(use_no_em=False),
    "no-early-term": FilterConfig.koios().without(
        use_em_early_termination=False
    ),
    "no-vanilla": FilterConfig.koios().without(
        vanilla_initialization=False
    ),
    "safe-no-vanilla": FilterConfig.koios(iub_mode="safe").without(
        vanilla_initialization=False
    ),
}


def assert_bitwise_equal(got, expected, context=""):
    assert got.ids() == expected.ids(), context
    assert got.scores() == expected.scores(), context
    assert got.theta_k == expected.theta_k, context
    for mine, reference in zip(got.entries, expected.entries):
        assert mine.lower_bound == reference.lower_bound, context
        assert mine.upper_bound == reference.upper_bound, context
        assert mine.exact == reference.exact, context


def reference_engine(stack, **kwargs):
    return ReferenceEngine(
        stack.collection, stack.index, stack.sim, alpha=0.8, **kwargs
    )


def sample_queries(collection, rng, count):
    queries = [
        frozenset(collection[int(i)])
        for i in rng.integers(0, len(collection), size=count - 2)
    ]
    vocab = sorted(collection.vocabulary)
    # One mixed query with out-of-vocabulary tokens, one fully OOV.
    queries.append(frozenset(vocab[:3]) | {"oov_x", "oov_y"})
    queries.append(frozenset({"oov_only_a", "oov_only_b"}))
    return queries


class TestInterning:
    def test_token_table_roundtrip(self):
        table = TokenTable.from_vocabulary({"pear", "apple", "fig"})
        assert table.tokens == ["apple", "fig", "pear"]
        assert table.id_of("fig") == 1
        assert table.id_of("missing") == -1
        assert table.token_at(2) == "pear"
        assert list(table.encode(["pear", "nope", "apple"])) == [2, -1, 0]

    def test_table_cached_per_collection_version(self, tiny_opendata):
        collection = tiny_opendata.collection
        assert token_table_for(collection) is token_table_for(collection)

    def test_csr_matches_dict_postings(self, tiny_opendata):
        collection = tiny_opendata.collection
        inverted = InvertedIndex(collection)
        table = token_table_for(collection)
        csr = inverted.columnar(table)
        assert inverted.columnar(table) is csr  # cached
        for token_id, token in enumerate(table.tokens):
            lo, hi = csr.offsets[token_id], csr.offsets[token_id + 1]
            assert csr.sets[lo:hi].tolist() == inverted.sets_containing(token)
        sizes = csr.set_sizes()
        for set_id in collection.ids():
            assert int(sizes[set_id]) == collection.cardinality(set_id)


class TestFastDrain:
    def test_drain_bitwise_identical_to_heap_drain(self, tiny_opendata):
        collection = tiny_opendata.collection
        rng = make_rng(SEED)
        for alpha in ALPHAS:
            for query in sample_queries(collection, rng, 6):
                if not (query & collection.vocabulary) and not any(
                    tiny_opendata.dataset.provider.covers(t) for t in query
                ):
                    continue
                reference = MaterializedTokenStream.drain(
                    query,
                    tiny_opendata.index,
                    alpha,
                    collection_vocabulary=collection.vocabulary,
                )
                columnar = fast_drain(
                    query,
                    tiny_opendata.index,
                    alpha,
                    vocabulary=collection.vocabulary,
                )
                assert list(columnar) == list(reference), (alpha, len(query))


#: Dyadic store coordinates: every similarity below is exact, so ties
#: are common; 1.25 and -0.5 exercise the clip to [0, 1].
GRID = (1.25, 1.0, 0.875, 0.75, 0.75, 0.625, 0.5, 0.25, 0.0, -0.5)
#: Thresholds that float32 rounds down: a row at ``float32(alpha)`` is
#: below ``alpha`` in float64 but not in float32.
BELOW_FLOAT32 = (0.7, 0.9)
AXES = 3
STORED = [f"s{i:02d}" for i in range(12)]
NOT_STORED = ["v0", "v1"]  # vocabulary-only candidates (no store row)
UNKNOWN = ["x0", "x1"]     # in neither the store nor the vocabulary


class AxisProvider:
    """Embeds each covered token as a basis vector, so a store row's
    similarity to it is exactly one of the row's coordinates."""

    dim = AXES

    def __init__(self, axes: dict[str, int]) -> None:
        self._axes = axes

    def covers(self, token: str) -> bool:
        return token in self._axes

    def vector(self, token: str) -> np.ndarray:
        vec = np.zeros(AXES, dtype=np.float32)
        vec[self._axes[token]] = 1.0
        return vec


class DrainCase(NamedTuple):
    rows: tuple[tuple[float, ...], ...]  # one store row per STORED[i]
    vocab_rows: frozenset[int]           # stored rows in the vocabulary
    extra_vocab: frozenset[str]          # vocabulary tokens without a row
    query: tuple[str, ...]
    axes: dict[str, int]                 # covered query tokens' probe axis
    alpha: float
    batch: int
    row_block: int


@st.composite
def drain_cases(draw) -> DrainCase:
    n_rows = draw(st.integers(0, len(STORED)))
    below = draw(st.booleans())
    alpha = draw(st.sampled_from(BELOW_FLOAT32)) if below else None
    cells = GRID + ((float(np.float32(alpha)),) * 2 if below else ())
    rows = [
        tuple(draw(st.sampled_from(cells)) for _ in range(AXES))
        for _ in range(n_rows)
    ]
    if below and rows:
        # At least one row sits exactly at float32(alpha).
        row, axis = draw(st.integers(0, n_rows - 1)), draw(
            st.integers(0, AXES - 1)
        )
        rows[row] = rows[row][:axis] + (
            float(np.float32(alpha)),
        ) + rows[row][axis + 1:]
    if not below:
        attained = sorted({min(v, 1.0) for row in rows for v in row if v > 0})
        alpha = draw(st.sampled_from(attained or [1.0]))
    pool = STORED[:n_rows] + NOT_STORED + UNKNOWN
    query = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                          unique=True))
    axes = {}
    for token in query:
        axis = draw(st.none() | st.integers(0, AXES - 1))
        if axis is not None:
            axes[token] = axis
    return DrainCase(
        rows=tuple(rows),
        vocab_rows=frozenset(
            draw(st.sets(st.integers(0, n_rows - 1))) if n_rows else ()
        ),
        extra_vocab=frozenset(draw(st.sets(st.sampled_from(NOT_STORED)))),
        query=tuple(query),
        axes=axes,
        alpha=alpha,
        batch=draw(st.sampled_from((1, 2, 3, 100))),
        row_block=draw(st.sampled_from((1, 2, 3, 2048))),
    )


def assert_drains_identical(case: DrainCase) -> None:
    tokens = STORED[:len(case.rows)]
    provider = AxisProvider(case.axes)
    matrix = np.array(case.rows, dtype=np.float32).reshape(-1, AXES)
    store = VectorStore.from_state(provider, tokens, matrix)
    index = ExactCosineIndex(store, provider, batch_size=case.batch)
    vocabulary = frozenset(tokens[i] for i in case.vocab_rows)
    vocabulary |= case.extra_vocab
    table = TokenTable.from_vocabulary(vocabulary)
    with mock.patch.object(vector_index, "ROW_BLOCK", case.row_block):
        columnar = fast_drain(
            case.query, index, case.alpha, vocabulary=vocabulary, table=table
        )
        reference = MaterializedTokenStream.drain(
            case.query, index, case.alpha, collection_vocabulary=vocabulary
        )
    assert list(columnar) == list(reference)
    assert [tuple(map(type, t)) for t in columnar] == [
        (str, str, float)
    ] * len(reference)
    query_sorted = sorted(case.query)
    for mine, expected in zip(
        columnar.columns(table, query_sorted),
        reference.columns(table, query_sorted),
    ):
        assert mine.dtype == expected.dtype
        assert mine.tobytes() == expected.tobytes()


class TestDrainIdentity:
    """``fast_drain`` (probe blocks, mask before sort) against the heap
    drain over :meth:`ExactCosineIndex.stream` (full argpartition and
    argsort per element): same tuples, same columns, on stores where
    exact ties are the rule."""

    @settings(max_examples=300, deadline=None)
    @given(case=drain_cases())
    # Self-matches (s01 in the vocabulary, its own row a hit), a stale
    # row (s02 and s03 outside the vocabulary), an uncovered probe (x0)
    # and a vocabulary token without a row (v0, a self-match only).
    @example(case=DrainCase(
        rows=((1.0, 0.5, 0.0), (0.875, 1.0, 0.0), (0.875, 0.0, 1.0),
              (0.75, 0.75, 0.75)),
        vocab_rows=frozenset({0, 1}), extra_vocab=frozenset({"v0"}),
        query=("s01", "s02", "x0", "v0"), axes={"s01": 0, "s02": 0},
        alpha=0.75, batch=2, row_block=2048,
    ))
    # An empty store: only self-matches stream.
    @example(case=DrainCase(
        rows=(), vocab_rows=frozenset(), extra_vocab=frozenset({"v0"}),
        query=("v0", "x0"), axes={"v0": 0, "x0": 1},
        alpha=0.5, batch=1, row_block=2048,
    ))
    # More hits than the batch, ties at 0.75 straddling its boundary,
    # in one row block and in blocks of two rows.
    @example(case=DrainCase(
        rows=((0.75, 0.0, 0.0), (0.875, 0.0, 0.0), (0.75, 0.0, 0.0),
              (0.5, 0.0, 0.0), (0.75, 0.0, 0.0), (0.25, 0.0, 0.0)),
        vocab_rows=frozenset(range(6)), extra_vocab=frozenset(),
        query=("x0",), axes={"x0": 0},
        alpha=0.5, batch=2, row_block=2,
    ))
    # A row exactly at float32(alpha) < alpha must not stream.
    @example(case=DrainCase(
        rows=((float(np.float32(0.7)), 0.0, 0.0), (0.75, 0.0, 0.0),
              (0.5, 0.0, 0.0), (float(np.float32(0.7)), 0.0, 0.0)),
        vocab_rows=frozenset(range(4)), extra_vocab=frozenset(),
        query=("x0",), axes={"x0": 0},
        alpha=0.7, batch=1, row_block=2048,
    ))
    # Fewer hits than the batch, tied: argpartition releases s03 before
    # s02, so the order must come from the full row, not from the hits.
    @example(case=DrainCase(
        rows=((0.5, 0.0, 0.0), (0.0, 0.0, 0.0), (0.75, 0.0, 0.0),
              (0.75, 0.0, 0.0)),
        vocab_rows=frozenset(range(4)), extra_vocab=frozenset(),
        query=("x0",), axes={"x0": 0},
        alpha=0.75, batch=3, row_block=2048,
    ))
    def test_fast_drain_equals_heap_drain(self, case):
        assert_drains_identical(case)


class TestDrainScratch:
    """The drain keeps per-block hits, never a ``|Q| x |V|`` matrix."""

    def test_peak_does_not_scale_with_query_times_vocabulary(self):
        rng = np.random.default_rng(7)
        rows = 30_000
        tokens = [f"tok{i:05d}" for i in range(rows)]
        matrix = rng.standard_normal((rows, 64)).astype(np.float32)
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        provider = HashingEmbeddingProvider(dim=64)
        store = VectorStore.from_state(provider, tokens, matrix)
        index = ExactCosineIndex(store, provider)
        vocabulary = frozenset(tokens)
        table = TokenTable.from_vocabulary(vocabulary)
        store.table_maps(table)
        small, large = tokens[:10], tokens[:200]
        for token in large:
            provider.vector(token)  # the provider caches its vectors

        def peak(query, **kwargs):
            tracemalloc.start()
            try:
                stream = fast_drain(
                    query, index, 0.9, vocabulary=vocabulary, **kwargs
                )
                return tracemalloc.get_traced_memory()[1], len(stream)
            finally:
                tracemalloc.stop()

        # Without a shared table (the drain builds one), 20x the query
        # elements must stay within 1.5x the peak. With the engine's
        # shared table the peak is little more than the output, so there
        # the 190 extra elements must cost less than one float32
        # vocabulary row between them.
        (cold_small, n_small), (cold_large, n_large) = peak(small), peak(large)
        assert (n_small, n_large) == (10, 200)  # self-matches only
        assert cold_large <= 1.5 * cold_small
        warm_small, _ = peak(small, table=table)
        warm_large, _ = peak(large, table=table)
        assert warm_large - warm_small < rows * 4


class TestRestrict:
    def test_restriction_matches_filter(self, tiny_opendata):
        collection = tiny_opendata.collection
        sets = [collection[0], collection[1]]
        union = frozenset().union(*sets)
        engine = tiny_opendata.engine(alpha=0.7)
        stream = engine.drain(union)
        for wanted in sets:
            restricted = stream.restrict(frozenset(wanted))
            expected = [t for t in stream if t[0] in wanted]
            assert list(restricted) == expected
            assert restricted.query_tokens == frozenset(wanted)

    def test_restriction_slices_cached_columns(self, tiny_opendata):
        collection = tiny_opendata.collection
        union = frozenset(collection[0]) | frozenset(collection[1])
        engine = tiny_opendata.engine(alpha=0.7)
        stream = engine.drain(union)
        table = token_table_for(collection)
        stream.columns(table, sorted(union))  # populate the cache
        wanted = frozenset(collection[0])
        restricted = stream.restrict(wanted)
        q_col, t_col, s_col = restricted.columns(table, sorted(wanted))
        sub_query = sorted(wanted)
        for (q_token, token, sim), qi, ti, s in zip(
            restricted, q_col.tolist(), t_col.tolist(), s_col.tolist()
        ):
            assert sub_query[qi] == q_token
            assert table.token_at(ti) == token
            assert s == sim

    def test_superset_restriction_returns_self(self, tiny_opendata):
        query = frozenset(tiny_opendata.collection[0])
        stream = tiny_opendata.engine(alpha=0.7).drain(query)
        assert stream.restrict(query) is stream


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_ablation_bitwise_equal(self, tiny_opendata, name):
        config = ABLATIONS[name]
        collection = tiny_opendata.collection
        reference = reference_engine(tiny_opendata, config=config)
        columnar = tiny_opendata.engine(alpha=0.8, config=config)
        rng = make_rng(SEED + 1)
        for alpha in ALPHAS:
            for query in sample_queries(collection, rng, 5):
                assert_bitwise_equal(
                    columnar.search(query, K, alpha=alpha),
                    reference.search(query, K, alpha=alpha),
                    (name, alpha, sorted(query)[:3]),
                )

    def test_partitioned_engines_bitwise_equal(self, tiny_opendata):
        collection = tiny_opendata.collection
        reference, columnar = (
            pool_class(
                collection,
                tiny_opendata.index,
                tiny_opendata.sim,
                alpha=0.8,
                shards=3,
            )
            for pool_class in (ReferencePool, EnginePool)
        )
        assert columnar.num_shards == 3
        rng = make_rng(SEED + 2)
        for query in sample_queries(collection, rng, 5):
            assert_bitwise_equal(
                columnar.search(query, K),
                reference.search(query, K),
                sorted(query)[:3],
            )

    def test_all_oov_query(self, tiny_opendata):
        """An entirely out-of-vocabulary query exercises the columnar
        empty-stream path."""
        columnar = tiny_opendata.engine(alpha=0.8)
        result = columnar.search({"totally_oov_token"}, K)
        assert result.entries == []
        assert result.stats.consistency_ok()

    def test_stats_partition_identically(self, tiny_opendata):
        """Pruning/resolution counters are exact in the columnar engine
        (edge counters are trajectory-based and may exceed the
        reference's, which stops probing pruned candidates)."""
        reference = reference_engine(tiny_opendata)
        columnar = tiny_opendata.engine(alpha=0.8)
        query = frozenset(tiny_opendata.collection[3])
        a = reference.search(query, K).stats
        b = columnar.search(query, K).stats
        assert b.consistency_ok()
        assert b.candidates == a.candidates
        assert b.pruned_first_sight == a.pruned_first_sight
        assert b.pruned_bucket == a.pruned_bucket
        assert b.observed_edges >= a.observed_edges


def make_ops(rng, base, count):
    """>= 100 mixed ops: queries (alternating alphas) and mutations."""
    live = [base.name_of(i) for i in base.ids()]
    vocab_pool = sorted(base.vocabulary) + [
        f"fresh_token_{i}" for i in range(80)
    ]
    base_queries = [frozenset(base[i]) for i in base.ids()]
    ops = []
    fresh = 0
    alpha_flip = 0
    for _ in range(count):
        roll = rng.random()
        if roll < 0.5:
            alpha = ALPHAS[alpha_flip % len(ALPHAS)]
            alpha_flip += 1
            if rng.random() < 0.3:
                size = int(rng.integers(2, 7))
                query = frozenset(
                    str(t)
                    for t in rng.choice(vocab_pool, size=size, replace=False)
                )
            else:
                query = base_queries[int(rng.integers(len(base_queries)))]
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


class TestRandomizedPoolEquivalence:
    def test_sharded_pools_stay_bitwise_equal_under_mutation(
        self, tiny_opendata
    ):
        """The satellite property test: >= 100 randomized ops through
        two live sharded pools — the engine's and the oracle's —
        comparing every query bitwise at two alphas."""
        base = tiny_opendata.collection
        rng = make_rng(SEED)
        ops = make_ops(rng, base, OPS)
        assert len(ops) >= 100
        assert {op[0] for op in ops} == {
            "query", "insert", "delete", "replace",
        }

        pools = {}
        for engine, pool_class in (
            ("reference", ReferencePool), ("columnar", EnginePool)
        ):
            index, sim = build_substrate(
                SUBSTRATE, MutableSetCollection(base).vocabulary
            )
            pools[engine] = pool_class(
                MutableSetCollection(base), index, sim, alpha=0.8, shards=2
            )
        reference, columnar = pools["reference"], pools["columnar"]

        compared = 0
        for position, op in enumerate(ops):
            kind = op[0]
            if kind == "query":
                _, query, alpha = op
                assert_bitwise_equal(
                    columnar.search(query, K, alpha=alpha),
                    reference.search(query, K, alpha=alpha),
                    (position, alpha, sorted(query)[:3]),
                )
                compared += 1
            elif kind == "insert":
                _, name, tokens = op
                assert columnar.insert(tokens, name=name) == reference.insert(
                    tokens, name=name
                )
            elif kind == "delete":
                _, name, _ = op
                assert columnar.delete(name) == reference.delete(name)
            else:
                _, name, tokens = op
                assert columnar.replace(name, tokens) == reference.replace(
                    name, tokens
                )
        assert compared >= 30
        reference.shutdown()
        columnar.shutdown()
