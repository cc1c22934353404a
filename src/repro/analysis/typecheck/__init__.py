"""Plan-level static analysis: schema flow, purity, cost, and the gate.

The plan leg of :mod:`repro.analysis`, alongside the plan validator and
the framework linter:

* :mod:`~repro.analysis.typecheck.operators` — the operator table (one
  row per dataflow node kind: stage, schema half, cost half),
  :func:`pipeline_shape` (the one declaration of the pipeline's wiring,
  which the wrangler composes its dataflow from) and the one walk that
  threads schemas and cost estimates through a plan's dataflow topology
  without executing it;
* :mod:`~repro.analysis.typecheck.signatures` — the schema halves (rule
  ids ``TC001``–``TC009``); the cost halves live in
  :mod:`repro.analysis.cost.model`;
* :mod:`~repro.analysis.typecheck.checker` — the types-only entry over
  that walk;
* :mod:`~repro.analysis.typecheck.purity` — AST-based certification of
  dataflow node callables as pure (``TC010``), so the gate refuses a
  plan whose memoised values could not be trusted;
* :mod:`~repro.analysis.typecheck.gate` — :func:`run_preflight`, the
  combined structure + types + purity + cost gate behind
  ``Wrangler.run()`` / ``Wrangler.preflight()`` and ``python -m
  repro.analysis typecheck`` / ``cost``.
"""

from repro.analysis.typecheck.checker import (
    SchemaFlowChecker,
    check_schema_flow,
)
from repro.analysis.typecheck.gate import (
    probe_artifacts,
    purity_diagnostics,
    run_preflight,
)
from repro.analysis.typecheck.operators import (
    OPERATORS,
    Operator,
    pipeline_shape,
)
from repro.analysis.typecheck.purity import (
    PurityAnalyser,
    PurityVerdict,
    certify_callable,
)
from repro.analysis.typecheck.rules import TYPECHECK_RULES
from repro.analysis.typecheck.signatures import CheckContext

__all__ = [
    "SchemaFlowChecker",
    "check_schema_flow",
    "probe_artifacts",
    "purity_diagnostics",
    "run_preflight",
    "PurityAnalyser",
    "PurityVerdict",
    "certify_callable",
    "TYPECHECK_RULES",
    "OPERATORS",
    "Operator",
    "pipeline_shape",
    "CheckContext",
]
