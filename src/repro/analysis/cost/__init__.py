"""Cost: the ``CC`` checks of the gate, and the benchmark ratchet.

The cost leg of the analysis subsystem (beside the plan validator, the
framework linter and the type rules).  :mod:`~repro.analysis.cost.rules`
flags statically-predictable super-linear stages (a pooled cross-source
resolve, constraint discovery over a wide table) and notes a plan whose
spend the user context's budget leaves unbounded.  Rule ids are
``CC0xx``; findings flow through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` engine and into
``run_preflight``'s report, which ``python -m repro.analysis typecheck``
renders.

``python -m repro.analysis ratchet`` gates fresh ``BENCH_*.json`` runs
against committed baselines (:mod:`~repro.analysis.cost.ratchet`).
"""

from repro.analysis.cost.ratchet import (
    RatchetEntry,
    RatchetReport,
    run_ratchet,
)
from repro.analysis.cost.rules import COST_RULES

__all__ = [
    "COST_RULES",
    "RatchetEntry",
    "RatchetReport",
    "run_ratchet",
]
