"""Exception hierarchy for the :mod:`repro` data wrangling framework.

Every error raised by the library derives from :class:`WranglingError`, so
callers can catch a single base class at pipeline boundaries while the
library itself raises precise subclasses.
"""

from __future__ import annotations


class WranglingError(Exception):
    """Base class for all errors raised by the repro framework."""


class SchemaError(WranglingError):
    """A schema is malformed, or an attribute reference does not resolve."""


class TypeInferenceError(WranglingError):
    """A value could not be coerced to its declared data type."""


class SourceError(WranglingError):
    """A data source could not be read, parsed, or registered.

    Base of the acquisition failure taxonomy: a plain ``SourceError`` is
    *permanent* (retrying the same call cannot help — missing file,
    malformed payload, bad configuration); :class:`TransientSourceError`
    marks the retryable subset.
    """


class TransientSourceError(SourceError):
    """A source failed in a way that may succeed on retry.

    Timeouts, dropped connections, rate limits, momentary outages: the
    resilience layer (:mod:`repro.resilience`) retries these under its
    policy, while permanent :class:`SourceError` failures fail fast.
    """


class CircuitOpenError(TransientSourceError):
    """A source's circuit breaker is open: the call was never attempted.

    Transient by nature — the breaker re-admits traffic (half-open) after
    its clock-based cooldown elapses.
    """


class DeadlineExceededError(WranglingError):
    """A per-fetch or per-run time budget ran out before the work finished."""


class DegradedRunError(WranglingError):
    """Too few sources survived acquisition to honour the configured quorum.

    Carries the names of the sources that did not survive, so callers can
    report exactly what was lost.
    """

    def __init__(self, message: str, dead: tuple = ()) -> None:
        super().__init__(message)
        self.dead = tuple(dead)


class ExtractionError(WranglingError):
    """Wrapper induction or application failed on a document."""


class MatchingError(WranglingError):
    """Schema matching was asked to relate incompatible inputs."""


class MappingError(WranglingError):
    """A mapping is inapplicable to the table it was asked to transform."""


class ResolutionError(WranglingError):
    """Entity resolution received inconsistent configuration or input."""


class FusionError(WranglingError):
    """Data fusion could not reconcile conflicting values."""


class FeedbackError(WranglingError):
    """A feedback item is malformed or targets an unknown artifact."""


class ContextError(WranglingError):
    """The user or data context is inconsistent (e.g. bad AHP matrix)."""


class PlanningError(WranglingError):
    """The autonomic planner could not compose a pipeline."""


class DataflowError(WranglingError):
    """The incremental dataflow graph is malformed (cycles, missing nodes)."""


class QueryError(WranglingError):
    """A conjunctive query is malformed or references unknown relations."""


class AnalysisError(WranglingError):
    """The static-analysis tooling was misused (bad path, unknown rule)."""


class TelemetryError(WranglingError):
    """The observability layer was misused (bad metric kind, clock abuse)."""


class StaleValueError(DataflowError):
    """A dataflow node's memoised value was read while the node is dirty."""


class PlanValidationError(PlanningError):
    """Static plan validation found error-severity defects before execution.

    Subclasses :class:`PlanningError` so existing callers that guard the
    planning boundary keep working; carries the offending diagnostics.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class RepairError(WranglingError):
    """Constraint repair could not produce a consistent instance."""


class CheckpointError(WranglingError):
    """Durable ingestion state could not be written, read, or verified.

    Raised by :mod:`repro.ingest` when a journal or snapshot fails its
    integrity check (checksum mismatch, truncated JSON) or when a
    snapshot id resolves to nothing.  Corrupted files are quarantined
    rather than trusted — see ``docs/INCREMENTAL.md``.
    """


class SnapshotVersionError(CheckpointError):
    """An intact snapshot written in another encoding version.

    Not corruption: the object verifies and stays where it is; the
    caller falls back as for a missing snapshot (full fetch, step rerun).
    """


class InjectedCrashError(Exception):
    """A scripted process death from the chaos harness.

    Deliberately **not** a :class:`WranglingError`: a crash must escape
    every graceful-degradation handler (``_acquire`` catches
    ``WranglingError``, the resilience engine retries ``WranglingError``
    and ``OSError``) exactly as ``kill -9`` would.  Only the chaos test
    harness raises and catches this.
    """

