"""Plan-level static analysis: types and the gate.

The plan leg of :mod:`repro.analysis`, alongside the plan validator and
the framework linter:

* :mod:`~repro.analysis.typecheck.rules` — the ``TC`` rules, checked
  once per plan over the probe artifacts;
* :mod:`~repro.analysis.typecheck.gate` — :func:`run_preflight`, the
  combined contexts + types + cost gate behind ``Wrangler.run()`` /
  ``Wrangler.preflight()`` and ``python -m repro.analysis typecheck``.
"""

from repro.analysis.typecheck.gate import probe_artifacts, run_preflight
from repro.analysis.typecheck.rules import TYPECHECK_RULES

__all__ = [
    "probe_artifacts",
    "run_preflight",
    "TYPECHECK_RULES",
]
