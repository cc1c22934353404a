"""The cost & cardinality rules: the ``CC`` catalogue.

Each rule names one class of plan that is statically predictable to be
more expensive than it should be — super-linear stages (a pooled
cross-source resolve), plans whose access cost no budget bounds, and
estimates the certifier could not ground in a real cardinality.  The
certifier in :mod:`repro.analysis.cost.certifier` detects them by
propagating a :class:`~repro.analysis.cost.model.CardinalityEstimate`
through the plan's dataflow topology and emits each finding through the
shared :class:`~repro.analysis.diagnostics.Diagnostic` engine, so
validator, linter, typechecker, and cost findings render uniformly.

Severity doubles as admission pressure: ``warning`` rules flag cost
smells worth fixing but admit the plan; ``info`` rules record where the
estimate degraded to an assumption.  The one budget is the user
context's, and the planner's source selection never spends past it.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import Rule, Severity, catalogue

__all__ = ["COST_RULES"]

#: Rule catalogue for the cost certifier (mirrored in docs/ANALYSIS.md).
COST_RULES: Mapping[str, Rule] = catalogue(
    Rule(
        "CC001",
        "unknown-cardinality",
        Severity.INFO,
        "A selected source advertises no row count (no size hint and no "
        "probe artifact), so downstream estimates fall back to an assumed "
        "default cardinality — the certificate is still issued, but its "
        "confidence is degraded and every derived bound inherits it.",
    ),
    Rule(
        "CC004",
        "cross-source-join",
        Severity.WARNING,
        "Many sources pool their rows into one un-partitioned resolve: "
        "candidate pairs grow with the square of the union, so k sources "
        "cost ~k^2 single-source resolves — partition per source (or by "
        "a blocking key) before resolving.",
    ),
    Rule(
        "CC006",
        "unbounded-budget",
        Severity.INFO,
        "The plan spends access cost but the user context's budget is "
        "unbounded, so source selection spends against no limit and no "
        "plan can be refused for its spend.",
    ),
    Rule(
        "CC008",
        "superlinear-repair",
        Severity.WARNING,
        "Constraint discovery is enabled over an estimated fused table "
        "large enough that approximate-FD mining (rows x width^2 "
        "candidate dependencies) dominates the repair stage — mine "
        "constraints offline or cap the discovery scope.",
    ),
)
