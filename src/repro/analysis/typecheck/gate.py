"""The pre-execution gate: contexts + types + cost.

Every ``Wrangler.run()`` that composes a plan, and every
``Wrangler.preflight()``, funnels through :func:`run_preflight`, which
folds the plan validator's context findings (``PV0xx``), the type
findings over the probe artifacts (``TC0xx``) and the cost findings
(``CC0xx``) into one
:class:`~repro.analysis.validator.ValidationReport`, stably ordered.
Each pass reads the plan once; none walks the dataflow.  A plan is
refused for a declared master table that is missing or a recency key
that is not a date through exactly the same machinery.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.cost.rules import check_costs, source_facts
from repro.analysis.diagnostics import sort_diagnostics
from repro.analysis.typecheck.rules import check_types
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
    schemas, mappings = (
        {
            key[len(PROBE_PREFIX):]: value
            for key, value in working.items(category)
            if key.startswith(PROBE_PREFIX)
        }
        for category in ("schema", "mapping")
    )
    return schemas, mappings


def run_preflight(
    plan: Any,
    user: Any,
    data: Any,
    registry: Any,
    working: Any,
    master_key: str | None = None,
    date_attribute: str | None = None,
    discover_constraints: bool = False,
) -> ValidationReport:
    """Run the full pre-execution gate and fold findings into one report.

    The parameters are exactly what ``Wrangler._compose`` hands over:
    probe artifacts are the ``probe/``-prefixed entries of ``working``.
    Every finding joins the report, info severity included; only errors
    refuse the plan.
    """
    schemas, mappings = probe_artifacts(working)
    findings = [
        *PlanValidator()
        .validate(plan, user, data, master_key, date_attribute)
        .diagnostics,
        *check_types(
            plan, user, registry.names(), schemas, mappings, date_attribute
        ),
        *check_costs(
            plan, user, source_facts(registry), discover_constraints
        ),
    ]
    return ValidationReport(tuple(sort_diagnostics(findings)))
