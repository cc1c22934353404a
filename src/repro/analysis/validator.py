"""Static validation of wrangle plans and contexts.

The autonomic planner composes the pipeline; this module checks the
composition *before* any data is touched, in the spirit of Koehler et
al.'s context-informed validation: a plan derived from contexts must be
checkable against the contexts that produced it.  Defects that would
otherwise surface at runtime deep inside ``Dataflow.pull`` —
unregistered sources, out-of-range thresholds, fusion strategies whose
data-context prerequisites are absent, budget contradictions — become
:class:`~repro.analysis.diagnostics.Diagnostic` findings with stable
rule ids (``PV0xx``).  The graph itself needs no rule: ``Dataflow.add``
refuses a dependency on an undefined node, so every dataflow is a DAG
by construction.

Inputs are duck-typed on purpose: the validator never executes plan
machinery, it only reads declared structure, so tests can feed it plain
dicts and hand-built plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping, Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Rule,
    Severity,
    catalogue,
    finding,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.report import render_text
from repro.errors import PlanValidationError, WranglingError
from repro.fusion.strategies import STRATEGIES

__all__ = ["ValidationReport", "PlanValidator"]

#: Rule catalogue for the validator half (mirrored in docs/ANALYSIS.md).
#: Every rule is an error by default; the degraded-but-runnable cases of
#: PV007/PV008 override to warning at the call site.
VALIDATOR_RULES: Mapping[str, Rule] = catalogue(
    Rule("PV003", "unregistered-source", Severity.ERROR,
         "plan selects a source that is not registered"),
    Rule("PV005", "threshold-out-of-range", Severity.ERROR,
         "plan threshold outside [0, 1]"),
    Rule("PV006", "weight-out-of-range", Severity.ERROR,
         "criteria weight or floor outside [0, 1]"),
    Rule("PV007", "fusion-prerequisite-missing", Severity.ERROR,
         "fusion strategy unknown or its prerequisite is missing"),
    Rule("PV008", "budget-contradiction", Severity.ERROR,
         "budget/floor contradiction in the user context"),
)

pv = partial(finding, VALIDATOR_RULES)


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of one static validation pass.

    ``cost`` is the :class:`~repro.analysis.cost.PlanCostReport` the
    preflight walk produced (``None`` when no cost pass ran): per-node
    estimates and every ``CC`` finding, including the info-severity ones
    the gate's ``diagnostics`` leave out.
    """

    diagnostics: tuple[Diagnostic, ...]
    cost: Any = None

    @property
    def ok(self) -> bool:
        """Whether the plan may execute (no error-severity findings)."""
        return not has_errors(self.diagnostics)

    def errors(self) -> list[Diagnostic]:
        """Only the error-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        """Only the warning-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def rule_ids(self) -> set[str]:
        """The distinct rule ids that fired."""
        return {d.rule for d in self.diagnostics}

    def render(self) -> str:
        """The findings as a text report."""
        return render_text(self.diagnostics)

    def raise_on_error(self) -> "ValidationReport":
        """Raise :class:`PlanValidationError` when any finding is fatal."""
        fatal = self.errors()
        if fatal:
            raise PlanValidationError(
                "plan validation failed with "
                f"{len(fatal)} error(s):\n" + render_text(fatal),
                diagnostics=fatal,
            )
        return self


def _in_unit_interval(value: object) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= float(value) <= 1.0


class PlanValidator:
    """Static checker for plans and contexts.

    Every ``check_*`` method returns diagnostics; :meth:`validate` runs
    all checks applicable to the artifacts it was given and folds the
    findings into one :class:`ValidationReport`.
    """

    # -- plan vs registry (PV003, PV005) --------------------------------

    def check_plan_sources(
        self, plan: Any, registry: Any
    ) -> list[Diagnostic]:
        """Every source the plan selects must actually be registered."""
        registered = self._registered_names(registry)
        findings = []
        for name in getattr(plan, "sources", ()):
            if name not in registered:
                findings.append(
                    pv(
                        "PV003",
                        "plan",
                        name,
                        f"plan selects unregistered source {name!r} "
                        f"(registered: {sorted(registered) or 'none'})",
                        "register the source before planning, or re-plan",
                    )
                )
        return findings

    @staticmethod
    def _registered_names(registry: Any) -> set[str]:
        if registry is None:
            return set()
        if hasattr(registry, "names"):
            return set(registry.names())
        return set(registry)

    def check_plan_thresholds(self, plan: Any) -> list[Diagnostic]:
        """Match and ER thresholds must be probabilities."""
        findings = []
        for field_name in ("match_threshold", "er_threshold"):
            value = getattr(plan, field_name, None)
            if value is None:
                continue
            if not _in_unit_interval(value):
                findings.append(
                    pv(
                        "PV005",
                        "plan",
                        field_name,
                        f"{field_name} must be in [0, 1], got {value!r}",
                        "clamp the threshold into the unit interval",
                    )
                )
        return findings

    # -- fusion prerequisites (PV007) -----------------------------------

    def check_fusion(
        self,
        plan: Any,
        user: Any = None,
        data: Any = None,
        master_key: str | None = None,
        date_attribute: str | None = None,
    ) -> list[Diagnostic]:
        """Fusion strategies and the data-context support they assume."""
        findings = []
        strategy = getattr(plan, "fusion_strategy", None)
        known = set(STRATEGIES)
        if strategy is not None and strategy not in known:
            findings.append(
                pv(
                    "PV007",
                    "plan",
                    "fusion_strategy",
                    f"unknown fusion strategy {strategy!r} "
                    f"(known: {sorted(known)})",
                    "pick one of the registered strategies",
                )
            )
        target_schema = getattr(user, "target_schema", None)
        for attribute, override in sorted(
            (getattr(plan, "fusion_overrides", None) or {}).items()
        ):
            if override not in known:
                findings.append(
                    pv(
                        "PV007",
                        "plan",
                        f"fusion_overrides.{attribute}",
                        f"fusion override for {attribute!r} names unknown "
                        f"strategy {override!r}",
                        "pick one of the registered strategies",
                    )
                )
            if target_schema is not None and attribute not in target_schema:
                findings.append(
                    pv(
                        "PV007",
                        "plan",
                        f"fusion_overrides.{attribute}",
                        f"fusion override targets attribute {attribute!r} "
                        "absent from the target schema",
                        "drop the override or fix the attribute name",
                    )
                )
            elif override == "median" and target_schema is not None:
                attr = target_schema.get(attribute)
                if attr is not None and not attr.dtype.is_numeric():
                    findings.append(
                        pv(
                            "PV007",
                            "plan",
                            f"fusion_overrides.{attribute}",
                            f"median fusion on non-numeric attribute "
                            f"{attribute!r} ({attr.dtype.value}) degrades to "
                            "majority vote",
                            "use a categorical strategy for this attribute",
                            severity=Severity.WARNING,
                        )
                    )
        if strategy == "recent" and date_attribute is None:
            has_date = target_schema is not None and any(
                attribute.dtype.value == "date" for attribute in target_schema
            )
            if not has_date:
                findings.append(
                    pv(
                        "PV007",
                        "plan",
                        "fusion_strategy",
                        "recency fusion selected but no date attribute is "
                        "declared anywhere: all claims tie at default recency",
                        "declare date_attribute or add a DATE column",
                        severity=Severity.WARNING,
                    )
                )
        if master_key is not None:
            master_data = getattr(data, "master_data", {}) if data else {}
            if master_key not in master_data:
                findings.append(
                    pv(
                        "PV007",
                        "data-context",
                        master_key,
                        f"master-data key {master_key!r} is declared but the "
                        "data context holds no such master table: accuracy "
                        "anchoring and master fusion cannot run",
                        "add_master() the table or drop master_key",
                    )
                )
        return findings

    # -- user context (PV006, PV008) ------------------------------------

    def check_user_context(
        self, user: Any, plan: Any = None, registry: Any = None
    ) -> list[Diagnostic]:
        """Weight ranges and budget/floor contradictions."""
        findings = []
        for dimension, weight in sorted(
            (getattr(user, "weights", None) or {}).items(),
            key=lambda kv: str(kv[0]),
        ):
            if not _in_unit_interval(weight):
                findings.append(
                    pv(
                        "PV006",
                        "user-context",
                        getattr(dimension, "value", str(dimension)),
                        f"criteria weight for {getattr(dimension, 'value', dimension)} "
                        f"must be in [0, 1] after normalisation, got {weight:.3f}",
                        "remove negative raw weights before normalising",
                    )
                )
        floors = getattr(user, "floors", None) or {}
        weights = getattr(user, "weights", None) or {}
        for dimension, floor in sorted(
            floors.items(), key=lambda kv: str(kv[0])
        ):
            name = getattr(dimension, "value", str(dimension))
            if not _in_unit_interval(floor):
                findings.append(
                    pv(
                        "PV006",
                        "user-context",
                        name,
                        f"floor for {name} must be in [0, 1], got {floor!r}",
                        "use a probability floor",
                    )
                )
            elif floor > 0 and weights.get(dimension, 0.0) == 0.0:
                findings.append(
                    pv(
                        "PV008",
                        "user-context",
                        name,
                        f"hard floor {floor:.2f} on {name} but the dimension "
                        "carries zero weight: candidates are filtered on a "
                        "criterion the ranking never optimises",
                        "give the dimension a non-zero weight",
                        severity=Severity.WARNING,
                    )
                )
        budget = getattr(user, "budget", None)
        if budget is not None and plan is not None:
            selected = list(getattr(plan, "sources", ()) or ())
            if budget == 0 and selected:
                findings.append(
                    pv(
                        "PV008",
                        "user-context",
                        "budget",
                        f"budget is 0 but the plan selects "
                        f"{len(selected)} source(s): acquisition cannot be "
                        "paid for",
                        "raise the budget or expect an empty plan",
                    )
                )
            elif budget not in (None, float("inf")) and registry is not None:
                cost = self._plan_cost(selected, registry)
                if cost is not None and cost > budget:
                    findings.append(
                        pv(
                            "PV008",
                            "user-context",
                            "budget",
                            f"plan's acquisition cost {cost:.1f} exceeds the "
                            f"budget {budget:.1f}",
                            "re-plan under the budget or raise it",
                        )
                    )
        return findings

    @staticmethod
    def _plan_cost(selected: Sequence[str], registry: Any) -> float | None:
        if not hasattr(registry, "get"):
            return None
        total = 0.0
        for name in selected:
            try:
                source = registry.get(name)
            except WranglingError:
                return None  # unknown source: PV003's finding, not a cost
            metadata = getattr(source, "metadata", None)
            if metadata is None:
                return None
            total += metadata.cost_per_access
        return total

    # -- the one-call entry point ----------------------------------------

    def validate(
        self,
        plan: Any = None,
        user: Any = None,
        data: Any = None,
        registry: Any = None,
        master_key: str | None = None,
        date_attribute: str | None = None,
    ) -> ValidationReport:
        """Run every check applicable to the artifacts provided."""
        findings: list[Diagnostic] = []
        if plan is not None:
            findings.extend(self.check_plan_thresholds(plan))
            if registry is not None:
                findings.extend(self.check_plan_sources(plan, registry))
            findings.extend(
                self.check_fusion(
                    plan,
                    user=user,
                    data=data,
                    master_key=master_key,
                    date_attribute=date_attribute,
                )
            )
        if user is not None:
            findings.extend(
                self.check_user_context(user, plan=plan, registry=registry)
            )
        return ValidationReport(tuple(sort_diagnostics(findings)))
