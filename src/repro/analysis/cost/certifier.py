"""The cost & cardinality certifier: the cost half of the plan walk.

:func:`~repro.analysis.typecheck.operators.walk_plan` threads a
:class:`~repro.analysis.cost.model.CardinalityEstimate` from node to
node of a plan's dataflow topology; each node's
:class:`~repro.analysis.typecheck.operators.Operator` row estimates and
checks it.  This module turns that walk into the certificate: the
plan-level budget rule (``CC006``) and the :class:`PlanCostReport`, so a
pooled cross-source resolve or a plan no budget bounds surfaces as
``CC`` diagnostics *before* any source is fully accessed.  The budget
itself is the user context's, and the planner's source selection spends
within it: a composed plan never costs more than its budget
(``tests/analysis/test_gate_draws.py`` states that as a property).

Everything is duck-typed (plans, registries, dataflows), matching the
plan validator's contract: tests can feed hand-built stand-ins, and this
module never imports :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    sort_diagnostics,
)
from repro.analysis.cost.model import CardinalityEstimate, CostContext, cc

__all__ = ["PlanCostReport", "certify_walk"]


@dataclass(frozen=True)
class PlanCostReport:
    """Per-node estimates plus plan-level totals and findings."""

    estimates: Mapping[str, CardinalityEstimate]
    stages: Mapping[str, str | None]
    findings: tuple[Diagnostic, ...]

    @property
    def total_access_cost(self) -> float:
        """Estimated access spend in ``cost_per_access`` units."""
        return sum(e.access_cost for e in self.estimates.values())

    @property
    def total_work(self) -> float:
        return sum(e.work for e in self.estimates.values())

    @property
    def predicted_seconds(self) -> float:
        """Predicted compute-seconds under the per-stage unit costs."""
        return sum(
            estimate.seconds(self.stages.get(name))
            for name, estimate in self.estimates.items()
        )

    @property
    def ok(self) -> bool:
        """No error-severity finding (the admission-control verdict)."""
        return not any(
            d.severity is Severity.ERROR for d in self.findings
        )

    def diagnostics(
        self, min_severity: Severity = Severity.WARNING
    ) -> list[Diagnostic]:
        """The findings at ``min_severity`` or worse, stably ordered."""
        return [
            d for d in self.findings
            if d.severity.rank >= min_severity.rank
        ]

    def to_dict(self) -> dict[str, Any]:
        """The JSON form behind the committed plan→cost snapshot."""
        return {
            "nodes": {
                name: self.estimates[name].to_dict()
                for name in sorted(self.estimates)
            },
            "totals": {
                "access_cost": round(self.total_access_cost, 4),
                "work": round(self.total_work, 2),
                "predicted_seconds": round(self.predicted_seconds, 4),
            },
        }


def _budget_findings(
    context: CostContext,
    estimates: Mapping[str, CardinalityEstimate],
) -> list[Diagnostic]:
    total = sum(e.access_cost for e in estimates.values())
    if context.user_budget == float("inf") and total > 0:
        return [
            cc(
                "CC006",
                "plan",
                None,
                f"estimated access cost {total:.2f} is bounded by no "
                "budget (the user context's budget is unbounded)",
                "give the user context a budget: source selection spends "
                "within it",
            )
        ]
    return []


def certify_walk(
    context: CostContext, walk: Any, dataflow: Any
) -> PlanCostReport:
    """The ``CC`` certificate for a walk that ran the cost half: its
    per-node findings plus the plan-level budget rule, with predicted
    per-node seconds written onto the dataflow so telemetry exports
    carry them."""
    report = PlanCostReport(
        estimates=walk.estimates,
        stages=walk.stages,
        findings=tuple(
            sort_diagnostics(
                [
                    *walk.cost_findings,
                    *_budget_findings(context, walk.estimates),
                ]
            )
        ),
    )
    dataflow.annotate_costs(
        {
            name: round(estimate.seconds(report.stages.get(name)), 6)
            for name, estimate in report.estimates.items()
        }
    )
    return report
