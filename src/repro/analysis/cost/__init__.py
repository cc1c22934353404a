"""Cost: the ``CC`` checks of the gate.

:mod:`~repro.analysis.cost.rules` flags a statically-predictable
super-linear stage (a pooled cross-source resolve) and notes a plan
whose spend the user context's budget leaves unbounded.  Rule ids are
``CC0xx``; findings flow through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` engine and into
``run_preflight``'s report, which ``tools/typecheck.py`` renders.
"""

from repro.analysis.cost.rules import COST_RULES

__all__ = ["COST_RULES"]
