"""Cost & cardinality certification: how much will this plan spend?

The cost leg of the analysis subsystem (beside the plan validator, the
framework linter and the type rules): a static cost model
that propagates a :class:`~repro.analysis.cost.model.CardinalityEstimate`
— rows, per-stage work, access cost in ``cost_per_access`` units —
through a plan's dataflow topology, flags statically-predictable
super-linear stages (cross-source joins, constraint discovery), and
notes a plan whose spend the user context's budget leaves unbounded.
Rule ids are ``CC0xx``;
findings flow through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` engine and into
``run_preflight``, whose single plan walk
(:mod:`repro.analysis.typecheck.operators`) runs the cost halves defined
here.

``python -m repro.analysis cost examples`` renders the certificate;
``python -m repro.analysis ratchet`` gates fresh ``BENCH_*.json`` runs
against committed baselines (:mod:`~repro.analysis.cost.ratchet`).
"""

from repro.analysis.cost.certifier import PlanCostReport
from repro.analysis.cost.model import (
    CardinalityEstimate,
    UNIT_COSTS,
    estimated_pairs,
)
from repro.analysis.cost.ratchet import (
    RatchetEntry,
    RatchetReport,
    run_ratchet,
)
from repro.analysis.cost.rules import COST_RULES

__all__ = [
    "CardinalityEstimate",
    "COST_RULES",
    "PlanCostReport",
    "RatchetEntry",
    "RatchetReport",
    "UNIT_COSTS",
    "estimated_pairs",
    "run_ratchet",
]
