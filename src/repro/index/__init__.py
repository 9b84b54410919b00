"""Index substrate: inverted index ``Is``, token stream ``Ie``, exact
cosine vector index (Faiss substitute), MinHash LSH, and the pluggable
:class:`TokenIndex` protocol."""

from repro.index.base import TokenIndex
from repro.index.interning import (
    CSRPostings,
    TokenTable,
    csr_from_index,
    token_table_for,
)
from repro.index.inverted import InvertedIndex, PostingStats
from repro.index.ivf import IVFCosineIndex
from repro.index.lsh import (
    ExactJaccardIndex,
    MinHashLSHIndex,
    PrefixJaccardIndex,
)
from repro.index.minhash import MinHasher
from repro.index.scan import ScanTokenIndex
from repro.index.token_stream import (
    MaterializedTokenStream,
    StreamTuple,
    TokenStream,
)
from repro.index.vector_index import ExactCosineIndex

__all__ = [
    "CSRPostings",
    "ExactCosineIndex",
    "TokenTable",
    "csr_from_index",
    "token_table_for",
    "IVFCosineIndex",
    "ExactJaccardIndex",
    "InvertedIndex",
    "MaterializedTokenStream",
    "MinHashLSHIndex",
    "PrefixJaccardIndex",
    "ScanTokenIndex",
    "MinHasher",
    "PostingStats",
    "StreamTuple",
    "TokenIndex",
    "TokenStream",
]
