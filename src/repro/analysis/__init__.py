"""Static analysis for the repro framework: validate before you run.

Three legs share one diagnostics engine and one driver,
``python -m repro.analysis <lint|typecheck|ratchet>``:

* :mod:`repro.analysis.validator` — static validation of the contexts a
  user writes (rule ids ``PV0xx``), wired into
  :class:`~repro.core.wrangler.Wrangler` as a pre-flight check;
* :mod:`repro.analysis.lint` — an AST-based framework linter (rule ids
  ``REP0xx``), the driver's ``lint src/repro``;
* :mod:`repro.analysis.typecheck` — the type rules over the probe
  artifacts (rule ids ``TC0xx``) and, with the cost checks of
  :mod:`repro.analysis.cost` (``CC0xx``), the wrangler's pre-execution
  gate, rendered by the driver's ``typecheck examples``.

All emit :class:`~repro.analysis.diagnostics.Diagnostic` values and
render through :mod:`repro.analysis.report`.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Rule,
    Severity,
    count_by_severity,
    has_errors,
)
from repro.analysis.lint import LintResult, lint_paths, lint_source
from repro.analysis.report import render, render_json, render_text
from repro.analysis.rules import RULES, ModuleContext
from repro.analysis.typecheck import TYPECHECK_RULES, run_preflight
from repro.analysis.validator import PlanValidator, ValidationReport

__all__ = [
    "Diagnostic",
    "Location",
    "Rule",
    "Severity",
    "count_by_severity",
    "has_errors",
    "LintResult",
    "lint_paths",
    "lint_source",
    "render",
    "render_json",
    "render_text",
    "RULES",
    "ModuleContext",
    "PlanValidator",
    "ValidationReport",
    "TYPECHECK_RULES",
    "run_preflight",
]
