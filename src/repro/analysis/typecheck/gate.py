"""The pre-execution gate: structure + types + cost.

Every ``Wrangler.run()`` that composes a plan, and every
``Wrangler.preflight()``, funnels through :func:`run_preflight` — the
only way into the plan walk — which folds the plan validator's
structural findings (``PV0xx``) and — from one walk over the plan's
dataflow (:func:`~repro.analysis.typecheck.operators.walk_plan`) — the
schema-flow type findings (``TC001``–``TC009``) and the cost
certifier's cardinality findings (``CC0xx``) into one
:class:`~repro.analysis.validator.ValidationReport` — so a plan is
refused for an unregistered source, an untypable mapping, or
acquisitions over the user's budget through exactly the same
machinery.  The combined
report is deduplicated and stably ordered: three gates can flag one
node, but each exact finding appears once.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.cost.certifier import certify_walk
from repro.analysis.cost.model import CostContext, source_facts
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    dedupe_diagnostics,
    sort_diagnostics,
)
from repro.analysis.typecheck.checker import check_context
from repro.analysis.typecheck.operators import walk_plan
from repro.analysis.validator import PlanValidator, ValidationReport

__all__ = ["run_preflight", "probe_artifacts"]

#: WorkingData key prefix under which the wrangler files probe artifacts.
PROBE_PREFIX = "probe/"


def probe_artifacts(
    working: Any,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The per-source probe schemas and mappings filed on a blackboard.

    Reads the ``schema``/``mapping`` categories of a
    :class:`~repro.model.workingdata.WorkingData`, keeping only keys with
    the ``probe/`` prefix (the wrangler's convention for statically
    usable probe artifacts) and stripping it.
    """
    schemas: dict[str, Any] = {}
    mappings: dict[str, Any] = {}
    if working is None or not hasattr(working, "items"):
        return schemas, mappings
    for key, value in working.items("schema"):
        if key.startswith(PROBE_PREFIX):
            schemas[key[len(PROBE_PREFIX):]] = value
    for key, value in working.items("mapping"):
        if key.startswith(PROBE_PREFIX):
            mappings[key[len(PROBE_PREFIX):]] = value
    return schemas, mappings


def run_preflight(
    plan: Any,
    user: Any,
    data: Any,
    registry: Any,
    dataflow: Any,
    working: Any,
    master_key: str | None = None,
    date_attribute: str | None = None,
    discover_constraints: bool = False,
) -> ValidationReport:
    """Run the full pre-execution gate and fold findings into one report.

    The parameters are exactly what ``Wrangler._compose`` hands over:
    probe artifacts are the ``probe/``-prefixed entries of ``working``,
    and ``dataflow`` supplies the walk order.  The one budget is the user
    context's: a plan whose acquisitions exceed it is refused by
    ``PV008``.  When both a plan and a registry are supplied, the walk
    also runs the cost halves: per-node estimates are propagated through
    the dataflow (annotating it for telemetry), ``CC`` findings at
    warning severity or worse join the report, and the full
    :class:`~repro.analysis.cost.PlanCostReport` rides on its ``cost``.
    """
    source_schemas, mappings = probe_artifacts(working)

    validator_report = PlanValidator().validate(
        plan=plan,
        user=user,
        data=data,
        registry=registry,
        master_key=master_key,
        date_attribute=date_attribute,
    )
    findings: list[Diagnostic] = list(validator_report.diagnostics)

    types = check_context(plan, user, source_schemas, mappings, date_attribute)
    costs = None
    if plan is not None and registry is not None:
        costs = CostContext(
            plan=plan,
            user=user,
            sources=source_facts(registry),
            discover_constraints=discover_constraints,
        )
    walk = walk_plan(dataflow, types=types, costs=costs)
    findings.extend(walk.type_findings)
    cost_report = None
    if costs is not None:
        cost_report = certify_walk(costs, walk, dataflow)
        findings.extend(
            cost_report.diagnostics(min_severity=Severity.WARNING)
        )

    return ValidationReport(
        tuple(sort_diagnostics(dedupe_diagnostics(findings))),
        cost=cost_report,
    )
