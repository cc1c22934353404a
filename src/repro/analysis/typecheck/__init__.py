"""Plan-level static analysis: types, cost, and the gate.

The plan leg of :mod:`repro.analysis`, alongside the plan validator and
the framework linter:

* :mod:`~repro.analysis.typecheck.operators` — the operator table (one
  row per dataflow node kind: stage and cost half),
  :func:`pipeline_shape` (the one declaration of the pipeline's wiring,
  which the wrangler composes its dataflow from) and the one walk that
  threads cost estimates through a plan's dataflow topology without
  executing it;
* :mod:`~repro.analysis.typecheck.rules` — the ``TC`` rules, checked
  once per plan over the probe artifacts; the cost halves live in
  :mod:`repro.analysis.cost.model`;
* :mod:`~repro.analysis.typecheck.gate` — :func:`run_preflight`, the
  combined contexts + types + cost gate behind ``Wrangler.run()`` /
  ``Wrangler.preflight()`` and ``python -m repro.analysis typecheck`` /
  ``cost``, and the only way into that walk.
"""

from repro.analysis.typecheck.gate import probe_artifacts, run_preflight
from repro.analysis.typecheck.operators import (
    OPERATORS,
    Operator,
    pipeline_shape,
)
from repro.analysis.typecheck.rules import TYPECHECK_RULES

__all__ = [
    "probe_artifacts",
    "run_preflight",
    "TYPECHECK_RULES",
    "OPERATORS",
    "Operator",
    "pipeline_shape",
]
