"""Transparent resilient wrappers around data sources.

:func:`resilient` wraps any :class:`~repro.sources.base.DataSource` so
that every ``fetch``/``probe`` runs under a :class:`RetryPolicy`: bounded
attempts, exponential seeded backoff spent through the injected
:class:`~repro.obs.Clock`, a per-source :class:`CircuitBreaker`, and
per-fetch/per-run :class:`Deadline` budgets.  The wrapper is shape
preserving — a wrapped :class:`StructuredSource` *is* a
``StructuredSource`` — so the wrangler's pipeline needs no changes to run
over wrapped registries.

Accounting stays honest: each *physical* attempt is delegated to the
inner source's own ``fetch``/``probe``, so ``cost_per_access`` is charged
per attempt and the wrapper reports the inner source's accumulated cost.
Every attempt, outcome, backoff, and final disposition lands in the
shared :class:`~repro.resilience.ledger.DegradationLedger` and in
``resilience.*`` metrics and trace spans.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    SourceError,
    TransientSourceError,
    WranglingError,
)
from repro.obs import Clock, Telemetry
from repro.resilience.ledger import (
    DISPOSITION_FAILED,
    DISPOSITION_OK,
    DISPOSITION_RECOVERED,
    DISPOSITION_SHORT_CIRCUITED,
    AttemptRecord,
    DegradationLedger,
)
from repro.resilience.policy import BreakerState, CircuitBreaker, Deadline, RetryPolicy
from repro.sources.base import DataSource, Document, DocumentSource, StructuredSource
from repro.model.records import Table

__all__ = [
    "ResilientDocumentSource",
    "ResilientStructuredSource",
    "arm_run_deadline",
    "is_transient",
    "resilient",
]

T = TypeVar("T")

#: Numeric breaker-state encoding for the per-source state gauge.
_BREAKER_GAUGE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}


def is_transient(failure: BaseException) -> bool:
    """Whether a failure is worth retrying.

    :class:`TransientSourceError` is the declared retryable taxonomy;
    raw :class:`OSError` from a source that has not adopted it is treated
    as transient too (I/O hiccups are the canonical transient failure).
    """
    return isinstance(failure, (TransientSourceError, OSError))


class _Resilience:
    """The retry/breaker/deadline engine shared by both wrapper shapes."""

    def __init__(
        self,
        inner: DataSource,
        policy: RetryPolicy,
        telemetry: Telemetry | None = None,
        ledger: DegradationLedger | None = None,
    ) -> None:
        self.inner = inner
        self.policy = policy
        self.telemetry = telemetry or Telemetry()
        self.ledger = ledger or DegradationLedger()
        self.rng = policy.rng_for(inner.name)
        self.breaker = CircuitBreaker(
            self.telemetry.clock,
            failure_threshold=policy.breaker_threshold,
            cooldown=policy.breaker_cooldown,
            name=inner.name,
        )
        #: A shared per-run deadline, set by the wrangler before each run.
        self.run_deadline: Deadline | None = None

    # -- bookkeeping -------------------------------------------------------

    def _settle(self, disposition: str) -> None:
        self.ledger.settle(
            self.inner.name, disposition, self.breaker.state.value
        )
        self.telemetry.metrics.gauge(
            f"resilience.breaker.state.{self.inner.name}"
        ).set(_BREAKER_GAUGE[self.breaker.state])

    def _record(
        self, op: str, attempt: int, outcome: str,
        error: str = "", backoff: float = 0.0,
    ) -> None:
        self.ledger.record_attempt(
            self.inner.name,
            AttemptRecord(op, attempt, outcome, error=error, backoff=backoff),
        )

    # -- the engine --------------------------------------------------------

    def execute(self, op: str, call: Callable[[], T]) -> T:
        """Run one logical access under the policy; raise on final failure."""
        metrics = self.telemetry.metrics
        clock = self.telemetry.clock
        name = self.inner.name
        fetch_deadline = (
            Deadline(clock, self.policy.fetch_deadline, label=f"{op} {name}")
            if self.policy.fetch_deadline is not None
            else None
        )
        with self.telemetry.tracer.span(
            f"resilience.{op}", source=name
        ) as span:
            try:
                self.breaker.admit()
            except CircuitOpenError as refusal:
                metrics.counter("resilience.short_circuits").increment()
                self._record(op, 0, "short-circuit", error=str(refusal))
                self._settle(DISPOSITION_SHORT_CIRCUITED)
                span.set_attribute("outcome", "short-circuit")
                raise
            failures = 0
            while True:
                attempt = failures + 1
                self._check_deadlines(op, attempt, fetch_deadline)
                metrics.counter("resilience.attempts").increment()
                if attempt > 1:
                    metrics.counter("resilience.retries").increment()
                try:
                    value = call()
                except (WranglingError, OSError) as failure:
                    failures += 1
                    self._on_failure(
                        op, failures, failure, fetch_deadline, span
                    )
                    continue
                self.breaker.record_success()
                self._record(op, attempt, "success")
                self._settle(
                    DISPOSITION_RECOVERED if failures else DISPOSITION_OK
                )
                metrics.counter("resilience.successes").increment()
                span.set_attribute("outcome", "success")
                span.set_attribute("attempts", attempt)
                return value

    def _check_deadlines(
        self, op: str, attempt: int, fetch_deadline: Deadline | None
    ) -> None:
        for deadline in (self.run_deadline, fetch_deadline):
            if deadline is None or not deadline.expired:
                continue
            self._record(op, attempt, "deadline")
            self._settle(DISPOSITION_FAILED)
            self.telemetry.metrics.counter(
                "resilience.deadline_exceeded"
            ).increment()
            deadline.check(f"{op} of source {self.inner.name!r}")

    def _on_failure(
        self,
        op: str,
        failures: int,
        failure: BaseException,
        fetch_deadline: Deadline | None,
        span,
    ) -> None:
        """Classify one failed attempt; backoff or raise."""
        metrics = self.telemetry.metrics
        name = self.inner.name
        opened_before = self.breaker.times_opened
        self.breaker.record_failure()
        if self.breaker.times_opened > opened_before:
            metrics.counter("resilience.breaker.opened").increment()
        transient = is_transient(failure)
        retryable = transient and failures < self.policy.max_attempts
        backoff = self.policy.backoff(failures, self.rng) if retryable else 0.0
        outcome = "transient-failure" if transient else "permanent-failure"
        self._record(op, failures, outcome, error=str(failure), backoff=backoff)
        metrics.counter(f"resilience.failures.{outcome}").increment()
        if not retryable:
            self._settle(DISPOSITION_FAILED)
            span.set_attribute("outcome", outcome)
            span.set_attribute("attempts", failures)
            if isinstance(failure, WranglingError):
                raise failure
            raise SourceError(
                f"source {name!r} failed with {type(failure).__name__}: "
                f"{failure}"
            ) from failure
        # Never sleep past a deadline: if the backoff cannot fit in the
        # remaining budget, the retry could not run anyway — stop now.
        for deadline in (self.run_deadline, fetch_deadline):
            if deadline is not None and backoff >= deadline.remaining():
                self._record(op, failures, "deadline")
                self._settle(DISPOSITION_FAILED)
                metrics.counter("resilience.deadline_exceeded").increment()
                span.set_attribute("outcome", "deadline")
                raise DeadlineExceededError(
                    f"backoff of {backoff:.3g}s for source {name!r} exceeds "
                    f"the remaining {deadline.remaining():.3g}s budget"
                ) from failure
        metrics.histogram("resilience.backoff.seconds").observe(backoff)
        self.telemetry.clock.wait(backoff)


class ResilientStructuredSource(StructuredSource):
    """A :class:`StructuredSource` guarded by a resilience policy.

    Delegates every physical attempt to the inner source (which charges
    its own ``cost_per_access``), and reports the inner source's access
    accounting as its own.
    """

    def __init__(
        self,
        inner: StructuredSource,
        policy: RetryPolicy,
        telemetry: Telemetry | None = None,
        ledger: DegradationLedger | None = None,
    ) -> None:
        super().__init__(inner.metadata)
        self.engine = _Resilience(inner, policy, telemetry, ledger)

    @property
    def inner(self) -> StructuredSource:
        """The wrapped source."""
        return self.engine.inner  # type: ignore[return-value]

    @property
    def accesses(self) -> float:
        return self.inner.accesses

    @property
    def total_cost(self) -> float:
        return self.inner.total_cost

    def _load(self) -> Table:
        return self.inner.fetch()

    def fetch(self) -> Table:
        return self.engine.execute("fetch", self.inner.fetch)

    def probe(self, limit: int = 25) -> Table:
        return self.engine.execute("probe", lambda: self.inner.probe(limit))

    def size_hint(self) -> int:
        return self.inner.size_hint()

    def delta_cursor(self) -> str | None:
        return self.inner.delta_cursor()

    def with_cursor(self, attribute: str) -> "ResilientStructuredSource":
        self.inner.with_cursor(attribute)
        return self

    def _content_token(self) -> object:
        return self.inner._content_token()

    def fetch_delta(self, watermark=None):
        return self.engine.execute(
            "fetch_delta", lambda: self.inner.fetch_delta(watermark)
        )


class ResilientDocumentSource(DocumentSource):
    """A :class:`DocumentSource` guarded by a resilience policy."""

    def __init__(
        self,
        inner: DocumentSource,
        policy: RetryPolicy,
        telemetry: Telemetry | None = None,
        ledger: DegradationLedger | None = None,
    ) -> None:
        super().__init__(inner.metadata)
        self.engine = _Resilience(inner, policy, telemetry, ledger)

    @property
    def inner(self) -> DocumentSource:
        """The wrapped source."""
        return self.engine.inner  # type: ignore[return-value]

    @property
    def accesses(self) -> float:
        return self.inner.accesses

    @property
    def total_cost(self) -> float:
        return self.inner.total_cost

    def _load(self) -> Sequence[Document]:
        return self.inner.fetch()

    def fetch(self) -> list[Document]:
        return self.engine.execute("fetch", self.inner.fetch)

    def probe(self, limit: int = 2) -> list[Document]:
        return self.engine.execute("probe", lambda: self.inner.probe(limit))


_RESILIENT = (ResilientStructuredSource, ResilientDocumentSource)


def resilient(
    source: DataSource,
    policy: RetryPolicy,
    telemetry: Telemetry | None = None,
    ledger: DegradationLedger | None = None,
) -> DataSource:
    """Wrap ``source`` in the resilient wrapper matching its shape.

    Idempotent: an already-wrapped source is returned unchanged, so a
    registry can be re-wrapped safely.
    """
    if isinstance(source, _RESILIENT):
        return source
    if isinstance(source, StructuredSource):
        return ResilientStructuredSource(source, policy, telemetry, ledger)
    if isinstance(source, DocumentSource):
        return ResilientDocumentSource(source, policy, telemetry, ledger)
    raise SourceError(
        f"cannot wrap source of type {type(source).__name__}: expected a "
        "StructuredSource or DocumentSource"
    )


def arm_run_deadline(
    sources: Iterable[DataSource], policy: RetryPolicy | None, clock: Clock
) -> None:
    """Start ``policy``'s per-run time budget, shared by every resilient
    source among ``sources`` (a no-op without a ``run_deadline``)."""
    if policy is None or policy.run_deadline is None:
        return
    deadline = Deadline(clock, policy.run_deadline, label="wrangle run")
    for source in sources:
        if isinstance(source, _RESILIENT):
            source.engine.run_deadline = deadline
