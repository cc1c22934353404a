"""The cost rules: the ``CC`` catalogue and its three checks.

Each rule names one plan that is statically predictable to cost more
than it should: a pooled cross-source resolve (``CC004``), spend no
budget bounds (``CC006``), constraint discovery over a table wide and
long enough to dominate repair (``CC008``).  Each check needs one or two
numbers, read straight off the plan, the user context and the
registered sources' :class:`SourceFacts` — once per plan, from
:func:`~repro.analysis.typecheck.gate.run_preflight`.

Row counts are *upper bounds*: a source's memoised size hint, or
:data:`DEFAULT_ROWS` where it publishes none.  The selected sources'
rows pooled bound the translated table, and so the fused one (scope
filtering and fusion only shrink it).  The one budget is the user
context's, and the planner's source selection never spends past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping

from repro.analysis.diagnostics import (
    Diagnostic,
    Rule,
    Severity,
    catalogue,
    finding,
)
from repro.resolution.blocking import MAX_BLOCK_SIZE
from repro.resolution.er import SMALL_TABLE_CUTOFF
from repro.sources.base import PROBE_COST_FRACTION

__all__ = [
    "COST_RULES",
    "SourceFacts",
    "check_costs",
    "estimated_pairs",
    "planned_rows",
    "planned_spend",
    "source_facts",
]

# -- tunable thresholds (documented in docs/ANALYSIS.md) ------------------

#: Rows assumed for a source with no size hint (the probe sample size).
DEFAULT_ROWS = 25.0
#: Candidate pairs above which a pooled resolve (CC004) warns.
PAIR_WARNING_LIMIT = 50_000.0
#: Sources pooled into one resolve before CC004 considers it a
#: cross-source join.
CROSS_SOURCE_MIN = 4
#: rows x width^2 above which FD discovery dominates repair (CC008).
FD_WORK_LIMIT = 1_000_000.0

#: Rule catalogue for the cost checks (mirrored in docs/ANALYSIS.md).
COST_RULES: Mapping[str, Rule] = catalogue(
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
        "Constraint discovery is enabled over a fused table large enough "
        "that approximate-FD mining (rows x width^2 candidate "
        "dependencies) dominates the repair stage — mine constraints "
        "offline or cap the discovery scope.",
    ),
)

#: A ``CC`` diagnostic with the catalogue severity.
cc = partial(finding, COST_RULES)


@dataclass(frozen=True)
class SourceFacts:
    """What the gate statically knows about one registered source."""

    rows: float | None  # size hint; None when the source publishes none
    cost_per_access: float = 1.0


def _peek_rows(source: Any) -> float | None:
    """The memoised row count, without ever triggering a load.

    A cold :meth:`~repro.sources.base.StructuredSource.size_hint` loads
    the source to learn its size — an *access* the static pass must not
    cause (it would bypass the resilience ledger and charge nothing).
    So the peek walks the source and any resilience ``inner`` chain for
    the ``_size_hint`` a fetch or probe memoised.  Document sources
    publish none.
    """
    current = source
    while current is not None:
        hint = getattr(current, "_size_hint", None)
        if hint is not None:
            return float(hint)
        current = getattr(current, "inner", None)
    return None


def source_facts(registry: Any) -> dict[str, SourceFacts]:
    """Each registered source's :class:`SourceFacts`, in registry order.

    Row hints are free — and real — after the preflight probe, and
    ``None`` before it.
    """
    facts: dict[str, SourceFacts] = {}
    for name in registry.names():
        source = registry.get(name)
        cost = float(source.metadata.cost_per_access or 0.0)
        facts[name] = SourceFacts(_peek_rows(source), cost)
    return facts


def estimated_pairs(rows: float) -> tuple[float, bool]:
    """(estimated candidate pairs, whether the full-pairs path is taken).

    Mirrors the resolver ``Wrangler._stage_resolve`` builds — an
    :class:`~repro.resolution.er.EntityResolver` on its defaults: every
    pair at or below ``SMALL_TABLE_CUTOFF`` rows, token blocking above
    it.  An upper bound, not an expectation: token blocking can emit at
    most ``rows x (MAX_BLOCK_SIZE - 1) / 2`` pairs (every row in a full
    block), and a table no larger than one block is all pairs.
    """
    full = rows * max(rows - 1.0, 0.0) / 2.0
    if rows <= SMALL_TABLE_CUTOFF or rows <= MAX_BLOCK_SIZE:
        return full, True
    return min(full, rows * (MAX_BLOCK_SIZE - 1.0) / 2.0), False


def planned_rows(plan: Any, facts: Mapping[str, SourceFacts]) -> float:
    """An upper bound on the rows the plan's resolve and fusion see: the
    selected sources' rows pooled, :data:`DEFAULT_ROWS` for a source
    without a hint."""
    total = 0.0
    for name in plan.sources:
        rows = facts[name].rows
        total += DEFAULT_ROWS if rows is None else rows
    return total


def planned_spend(plan: Any, facts: Mapping[str, SourceFacts]) -> float:
    """The access cost the plan spends: every registered source is
    probed at ``PROBE_COST_FRACTION``, the selected ones acquired."""
    spend = PROBE_COST_FRACTION * sum(
        f.cost_per_access for f in facts.values()
    )
    for name, source in facts.items():
        if name in plan.sources:
            spend += source.cost_per_access
    return spend


def check_costs(
    plan: Any,
    user: Any,
    facts: Mapping[str, SourceFacts],
    discover_constraints: bool,
) -> list[Diagnostic]:
    """The ``CC`` findings for one plan; ``facts`` are the registered
    sources', in registration order."""
    findings = []
    rows = planned_rows(plan, facts)
    pairs, _ = estimated_pairs(rows)
    pooled = len(plan.sources)
    if pooled >= CROSS_SOURCE_MIN and pairs > PAIR_WARNING_LIMIT:
        findings.append(
            cc(
                "CC004",
                "dataflow",
                "resolve",
                f"{pooled} sources pool ~{rows:.0f} rows into one "
                f"resolve (~{pairs:.0f} candidate pairs): cross-source "
                f"pair growth is quadratic in the union",
                "resolve per source or per blocking key "
                "(scale.partitioned_resolve) and merge clusters",
            )
        )
    spend = planned_spend(plan, facts)
    if user.budget == float("inf") and spend > 0:
        findings.append(
            cc(
                "CC006",
                "plan",
                None,
                f"estimated access cost {spend:.2f} is bounded by no "
                "budget (the user context's budget is unbounded)",
                "give the user context a budget: source selection spends "
                "within it",
            )
        )
    width = float(len(user.target_schema))
    discovery_work = rows * width * width
    if discover_constraints and discovery_work > FD_WORK_LIMIT:
        findings.append(
            cc(
                "CC008",
                "dataflow",
                "repair",
                f"constraint discovery over ~{rows:.0f} fused rows "
                f"x {width:.0f}^2 candidate dependencies "
                f"(~{discovery_work:.0f} work units) dominates repair",
                "mine constraints offline on a sample, or disable "
                "discover_constraints for this plan",
            )
        )
    return findings
