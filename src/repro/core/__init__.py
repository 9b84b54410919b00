"""The paper's primary contribution: semantic overlap and the Koios
filter-verification search framework (refinement, post-processing,
partitioned facade, filter configuration, and search statistics)."""

from repro.core.bounds import PAPER, SAFE, Survivors
from repro.core.config import FilterConfig
from repro.core.fastpath import RefinementOutput
from repro.core.fastpath_verify import (
    ColumnarVerifier,
    supports_columnar_verify,
)
from repro.core.koios import KoiosSearchEngine, ResultEntry, SearchResult
from repro.core.many_to_one import ManyToOneSearchEngine
from repro.core.postprocessing import VerifiedEntry, postprocess
from repro.core.semantic_overlap import (
    greedy_semantic_overlap,
    matching_pairs,
    semantic_overlap,
    semantic_overlap_many_to_one,
    semantic_overlap_matching,
    vanilla_overlap,
)
from repro.core.stats import POSTPROCESSING, REFINEMENT, SearchStats
from repro.core.topk import GlobalThreshold, ThetaLB, TopKList

__all__ = [
    "PAPER",
    "SAFE",
    "ColumnarVerifier",
    "FilterConfig",
    "GlobalThreshold",
    "KoiosSearchEngine",
    "ManyToOneSearchEngine",
    "POSTPROCESSING",
    "REFINEMENT",
    "RefinementOutput",
    "ResultEntry",
    "SearchResult",
    "SearchStats",
    "Survivors",
    "ThetaLB",
    "TopKList",
    "VerifiedEntry",
    "greedy_semantic_overlap",
    "matching_pairs",
    "postprocess",
    "semantic_overlap",
    "semantic_overlap_many_to_one",
    "semantic_overlap_matching",
    "supports_columnar_verify",
    "vanilla_overlap",
]
