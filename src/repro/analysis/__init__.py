"""The pre-execution gate: validate a plan before it runs.

Every ``Wrangler.run()`` / ``Wrangler.preflight()`` calls
:func:`~repro.analysis.typecheck.run_preflight`, which folds three
rule families into one report:

* :mod:`repro.analysis.validator` — the contexts a user writes (rule
  ids ``PV0xx``);
* :mod:`repro.analysis.typecheck` — the types threaded through the probe
  artifacts (``TC0xx``);
* :mod:`repro.analysis.cost` — the statically predictable cost
  (``CC0xx``).

All emit :class:`~repro.analysis.diagnostics.Diagnostic` values.  The
dev tooling built on the same vocabulary lives outside the package, in
``tools/``: the framework linter (``tools/lint.py``, ``REP0xx``), the
plan checker over example modules (``tools/typecheck.py``) and the
benchmark ratchet (``tools/ratchet.py``).
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    Rule,
    Severity,
    count_by_severity,
    has_errors,
)
from repro.analysis.typecheck import TYPECHECK_RULES, run_preflight
from repro.analysis.validator import PlanValidator, ValidationReport

__all__ = [
    "Diagnostic",
    "Location",
    "Rule",
    "Severity",
    "count_by_severity",
    "has_errors",
    "PlanValidator",
    "ValidationReport",
    "TYPECHECK_RULES",
    "run_preflight",
]
