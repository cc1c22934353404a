"""Static validation of the contexts a user writes.

The autonomic planner composes the pipeline from the user and data
contexts (§4.2), so what the plan itself guarantees — registered
sources, thresholds in ``[0, 1]``, known fusion strategies, a spend
within the budget — holds by construction; ``tests/analysis/
test_gate_draws.py`` states each guarantee as a property over seeded
draws of composed plans.  What the gate can still catch is what a user
writes: the criteria weights and floors, the ``master_key`` and the
``date_attribute``.  This module checks those before any data is
touched, in the spirit of Koehler et al.'s context-informed validation,
as :class:`~repro.analysis.diagnostics.Diagnostic` findings with stable
rule ids (``PV0xx``).
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
    has_errors,
    sort_diagnostics,
)
from repro.analysis.report import render_text
from repro.errors import PlanValidationError

__all__ = ["ValidationReport", "PlanValidator"]

#: Rule catalogue for the validator half (mirrored in docs/ANALYSIS.md).
#: PV007's recency arm overrides to warning at the call site.
VALIDATOR_RULES: Mapping[str, Rule] = catalogue(
    Rule("PV006", "weight-out-of-range", Severity.ERROR,
         "criteria weight outside [0, 1] after normalisation"),
    Rule("PV007", "fusion-prerequisite-missing", Severity.ERROR,
         "a fusion prerequisite the contexts declare is missing"),
    Rule("PV008", "floor-without-weight", Severity.WARNING,
         "a hard floor on a dimension the user context does not weigh"),
)

pv = partial(finding, VALIDATOR_RULES)


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of one static validation pass: every finding, info
    severity included; only errors refuse the plan."""

    diagnostics: tuple[Diagnostic, ...]

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


class PlanValidator:
    """Static checker for the user-written half of a plan's inputs."""

    def check_user_context(self, user: Any) -> list[Diagnostic]:
        """PV006 (a weight outside ``[0, 1]``) and PV008 (a floor on an
        unweighted dimension).  ``UserContext`` itself refuses floors
        outside ``[0, 1]``, but normalisation only needs a positive sum,
        so a negative raw weight survives it."""
        findings = []
        for dimension, weight in sorted(
            user.weights.items(), key=lambda kv: kv[0].value
        ):
            if not 0.0 <= weight <= 1.0:
                findings.append(
                    pv(
                        "PV006",
                        "user-context",
                        dimension.value,
                        f"criteria weight for {dimension.value} must be in "
                        f"[0, 1] after normalisation, got {weight:.3f}",
                        "remove negative raw weights before normalising",
                    )
                )
        for dimension, floor in sorted(
            user.floors.items(), key=lambda kv: kv[0].value
        ):
            if floor > 0 and user.weight(dimension) == 0.0:
                findings.append(
                    pv(
                        "PV008",
                        "user-context",
                        dimension.value,
                        f"hard floor {floor:.2f} on {dimension.value} but the "
                        "dimension carries zero weight: candidates are "
                        "filtered on a criterion the ranking never optimises",
                        "give the dimension a non-zero weight",
                    )
                )
        return findings

    def check_fusion(
        self,
        plan: Any,
        user: Any,
        data: Any,
        master_key: str | None,
        date_attribute: str | None,
    ) -> list[Diagnostic]:
        """PV007: the data-context support the declared fusion assumes."""
        findings = []
        if (
            plan.fusion_strategy == "recent"
            and date_attribute is None
            and not any(
                attribute.dtype.value == "date"
                for attribute in user.target_schema
            )
        ):
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
        if master_key is not None and master_key not in data.master_data:
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

    def validate(
        self,
        plan: Any,
        user: Any,
        data: Any,
        master_key: str | None = None,
        date_attribute: str | None = None,
    ) -> ValidationReport:
        """Every check, folded into one report."""
        return ValidationReport(
            tuple(
                sort_diagnostics(
                    [
                        *self.check_fusion(
                            plan, user, data, master_key, date_attribute
                        ),
                        *self.check_user_context(user),
                    ]
                )
            )
        )
