"""Static analysis for the repro framework: validate before you run.

Three legs share one diagnostics engine:

* :mod:`repro.analysis.validator` — static validation of wrangle plans,
  dataflow graphs, mappings, and contexts (rule ids ``PV0xx``), wired
  into :class:`~repro.core.wrangler.Wrangler` as a pre-flight check;
* :mod:`repro.analysis.lint` — an AST-based framework linter (rule ids
  ``REP0xx``) run as ``python -m repro.analysis.lint src/repro``;
* :mod:`repro.analysis.typecheck` — a schema-flow type checker and node
  purity certifier (rule ids ``TC0xx``) run as ``python -m
  repro.analysis.typecheck examples`` and folded into the wrangler's
  pre-execution gate.

All emit :class:`~repro.analysis.diagnostics.Diagnostic` values and
render through :mod:`repro.analysis.report`.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    count_by_severity,
    has_errors,
)
from repro.analysis.report import render, render_json, render_text
from repro.analysis.rules import RULES, LintRule, ModuleContext
from repro.analysis.validator import (
    PlanValidator,
    ValidationReport,
    validate_plan,
)

__all__ = [
    "Diagnostic",
    "Location",
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
    "LintRule",
    "ModuleContext",
    "PlanValidator",
    "ValidationReport",
    "validate_plan",
    "PurityAnalyser",
    "PurityVerdict",
    "SchemaFlowChecker",
    "TYPECHECK_RULES",
    "run_preflight",
]

_LAZY_LINT_EXPORTS = ("LintResult", "lint_paths", "lint_source")
_LAZY_TYPECHECK_EXPORTS = (
    "PurityAnalyser",
    "PurityVerdict",
    "SchemaFlowChecker",
    "TYPECHECK_RULES",
    "run_preflight",
)


def __getattr__(name: str):
    # The lint and typecheck engines are imported lazily so that
    # ``python -m repro.analysis.lint`` / ``... .typecheck`` do not
    # re-execute an already-imported module (runpy's double-import
    # warning).
    if name in _LAZY_LINT_EXPORTS:
        from repro.analysis import lint

        return getattr(lint, name)
    if name in _LAZY_TYPECHECK_EXPORTS:
        from repro.analysis import typecheck

        return getattr(typecheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
