"""Scalability substrate: conjunctive queries, sampling approximation,
access-bounded evaluation, partitioned execution (paper Section 4.3)."""

from repro.scale.access import (
    AccessBudgetExceeded,
    AccessConstraint,
    BoundedEvaluator,
)
from repro.scale.approximation import (
    ApproximateAnswer,
    approximate_count,
    sample_table,
)
from repro.scale.partition import hash_partition, partitioned_resolve
from repro.scale.queries import Atom, ConjunctiveQuery, Variable

__all__ = [
    "AccessBudgetExceeded",
    "AccessConstraint",
    "ApproximateAnswer",
    "Atom",
    "BoundedEvaluator",
    "ConjunctiveQuery",
    "Variable",
    "approximate_count",
    "hash_partition",
    "partitioned_resolve",
    "sample_table",
]
