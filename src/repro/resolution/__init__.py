"""Entity resolution: blocking, comparison, match rules, clustering."""

from repro.resolution.blocking import (
    as_pair_set,
    full_pairs,
    minhash_lsh,
    pair_array,
    recall_of,
    token_blocking,
)
from repro.resolution.comparison import (
    FieldComparator,
    RecordComparator,
    ScoringContext,
    default_comparator,
    geo_similarity,
    profiled_comparator,
)
from repro.resolution.er import (
    EntityCluster,
    EntityResolver,
    ResolutionResult,
    stable_cluster_id,
)
from repro.resolution.kernels import CompiledComparator, compile_comparator
from repro.resolution.rules import MatchDecision, ThresholdRule, fit_threshold

__all__ = [
    "CompiledComparator",
    "EntityCluster",
    "EntityResolver",
    "FieldComparator",
    "MatchDecision",
    "RecordComparator",
    "ResolutionResult",
    "ScoringContext",
    "ThresholdRule",
    "as_pair_set",
    "compile_comparator",
    "default_comparator",
    "profiled_comparator",
    "fit_threshold",
    "full_pairs",
    "geo_similarity",
    "minhash_lsh",
    "pair_array",
    "recall_of",
    "stable_cluster_id",
    "token_blocking",
]
