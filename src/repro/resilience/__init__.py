"""repro.resilience — fault tolerance for the acquisition edge.

The paper's Veracity premise made operational: with "potentially
thousands of sources", some are down, slow, or malformed at any moment,
and the pipeline must complete pay-as-you-go instead of crashing.  Four
pieces:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (seeded
  exponential backoff on the injectable Clock), :class:`Deadline`
  (per-fetch / per-run budgets), :class:`CircuitBreaker`
  (closed/open/half-open per source).
* :mod:`repro.resilience.wrap` — :func:`resilient`, the transparent
  source wrapper applying the policy around every physical access, and
  :func:`arm_run_deadline`, which starts a run's shared time budget.
* :mod:`repro.resilience.ledger` — the :class:`DegradationLedger`
  recording every attempt/outcome, surfaced as
  ``WrangleResult.degradation``; its ``require_quorum`` is the run's
  survival policy.
* :mod:`repro.resilience.chaos` — :class:`ChaosSource`, deterministic
  seeded fault injection for tests and the E11 benchmark.

See ``docs/RESILIENCE.md`` for the full tour.
"""

from repro.resilience.chaos import ChaosSource, FaultPlan
from repro.resilience.ledger import (
    DISPOSITION_FAILED,
    DISPOSITION_OK,
    DISPOSITION_RECOVERED,
    DISPOSITION_SHORT_CIRCUITED,
    AttemptRecord,
    DegradationLedger,
    SourceDisposition,
)
from repro.resilience.policy import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.resilience.wrap import (
    ResilientDocumentSource,
    ResilientStructuredSource,
    arm_run_deadline,
    is_transient,
    resilient,
)

__all__ = [
    "AttemptRecord",
    "BreakerState",
    "ChaosSource",
    "CircuitBreaker",
    "Deadline",
    "DegradationLedger",
    "DISPOSITION_FAILED",
    "DISPOSITION_OK",
    "DISPOSITION_RECOVERED",
    "DISPOSITION_SHORT_CIRCUITED",
    "FaultPlan",
    "ResilientDocumentSource",
    "ResilientStructuredSource",
    "RetryPolicy",
    "SourceDisposition",
    "arm_run_deadline",
    "is_transient",
    "resilient",
]
