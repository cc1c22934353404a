"""Schema matching: similarity measures and evidence-pooling matchers."""

from repro.matching.schema_matching import Correspondence, SchemaMatcher
from repro.matching.similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    monge_elkan,
    name_similarity,
    numeric_similarity,
    token_set,
)

__all__ = [
    "Correspondence",
    "SchemaMatcher",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "monge_elkan",
    "name_similarity",
    "numeric_similarity",
    "token_set",
]
