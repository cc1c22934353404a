"""The access guard: resilience at the place a source is touched.

The wrangler touches a source in exactly two places — ``Wrangler._payload``
(probe and plain fetch) and :func:`~repro.ingest.incremental.acquire_durable`
(checkpointed ``fetch`` / ``fetch_delta``) — and both route the access
through :meth:`AccessGuard.call` once ``Wrangler.resilience`` is set.
There every logical access runs under a :class:`RetryPolicy`: bounded
attempts, exponential seeded backoff spent through the injected
:class:`~repro.obs.Clock`, a per-source :class:`CircuitBreaker`, and
per-fetch/per-run :class:`Deadline` budgets.  The registered sources are
the caller's own objects; the guard keeps its per-source state (breaker,
jitter generator) by source name.

Accounting stays honest: each *physical* attempt is the source's own
``fetch``/``probe``, so ``cost_per_access`` is charged per attempt.
Every attempt, outcome, backoff, and final disposition lands in the
shared :class:`~repro.resilience.ledger.DegradationLedger` and in
``resilience.*`` metrics and trace spans.
"""

from __future__ import annotations

import random
from typing import Callable, TypeVar

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    SourceError,
    TransientSourceError,
    WranglingError,
)
from repro.obs import Telemetry
from repro.resilience.ledger import (
    DISPOSITION_FAILED,
    DISPOSITION_OK,
    DISPOSITION_RECOVERED,
    DISPOSITION_SHORT_CIRCUITED,
    AttemptRecord,
    DegradationLedger,
)
from repro.resilience.policy import BreakerState, CircuitBreaker, Deadline, RetryPolicy

__all__ = ["AccessGuard", "is_transient"]

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


class AccessGuard:
    """The retry/breaker/deadline policy over one wrangler's source
    accesses: one breaker and one jitter generator per source name, made
    on its first access, and one run deadline shared by all of them."""

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        telemetry: Telemetry | None = None,
        ledger: DegradationLedger | None = None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.telemetry = telemetry or Telemetry()
        self.ledger = ledger or DegradationLedger()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._rngs: dict[str, random.Random] = {}
        #: The shared per-run deadline, started by :meth:`arm`.
        self.run_deadline: Deadline | None = None

    def arm(self) -> None:
        """Start a fresh per-run time budget; none without the policy's
        ``run_deadline``.  The wrangler arms it at the top of each run."""
        budget = self.policy.run_deadline
        self.run_deadline = (
            None
            if budget is None
            else Deadline(self.telemetry.clock, budget, label="wrangle run")
        )

    def _breaker(self, name: str) -> CircuitBreaker:
        """Source ``name``'s circuit breaker (made, with its seeded jitter
        generator, on the first access)."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = self._breakers[name] = CircuitBreaker(
                self.telemetry.clock,
                failure_threshold=self.policy.breaker_threshold,
                cooldown=self.policy.breaker_cooldown,
                name=name,
            )
            self._rngs[name] = self.policy.rng_for(name)
        return breaker

    # -- bookkeeping -------------------------------------------------------

    def _settle(self, name: str, disposition: str) -> None:
        state = self._breakers[name].state
        self.ledger.settle(name, disposition, state.value)
        self.telemetry.metrics.gauge(
            f"resilience.breaker.state.{name}"
        ).set(_BREAKER_GAUGE[state])

    def _record(
        self, name: str, op: str, attempt: int, outcome: str,
        error: str = "", backoff: float = 0.0,
    ) -> None:
        self.ledger.record_attempt(
            name,
            AttemptRecord(op, attempt, outcome, error=error, backoff=backoff),
        )

    # -- the engine --------------------------------------------------------

    def call(self, name: str, op: str, fn: Callable[[], T]) -> T:
        """Run ``fn``, one logical ``op`` access of source ``name``, under
        the policy; raise on final failure."""
        metrics = self.telemetry.metrics
        clock = self.telemetry.clock
        breaker = self._breaker(name)
        fetch_deadline = (
            Deadline(clock, self.policy.fetch_deadline, label=f"{op} {name}")
            if self.policy.fetch_deadline is not None
            else None
        )
        with self.telemetry.tracer.span(
            f"resilience.{op}", source=name
        ) as span:
            try:
                breaker.admit()
            except CircuitOpenError as refusal:
                metrics.counter("resilience.short_circuits").increment()
                self._record(name, op, 0, "short-circuit", error=str(refusal))
                self._settle(name, DISPOSITION_SHORT_CIRCUITED)
                span.set_attribute("outcome", "short-circuit")
                raise
            failures = 0
            while True:
                attempt = failures + 1
                self._check_deadlines(name, op, attempt, fetch_deadline)
                metrics.counter("resilience.attempts").increment()
                if attempt > 1:
                    metrics.counter("resilience.retries").increment()
                try:
                    value = fn()
                except (WranglingError, OSError) as failure:
                    failures += 1
                    self._on_failure(
                        name, op, failures, failure, fetch_deadline, span
                    )
                    continue
                breaker.record_success()
                self._record(name, op, attempt, "success")
                self._settle(
                    name, DISPOSITION_RECOVERED if failures else DISPOSITION_OK
                )
                metrics.counter("resilience.successes").increment()
                span.set_attribute("outcome", "success")
                span.set_attribute("attempts", attempt)
                return value

    def _check_deadlines(
        self, name: str, op: str, attempt: int,
        fetch_deadline: Deadline | None,
    ) -> None:
        for deadline in (self.run_deadline, fetch_deadline):
            if deadline is None or not deadline.expired:
                continue
            self._record(name, op, attempt, "deadline")
            self._settle(name, DISPOSITION_FAILED)
            self.telemetry.metrics.counter(
                "resilience.deadline_exceeded"
            ).increment()
            deadline.check(f"{op} of source {name!r}")

    def _on_failure(
        self,
        name: str,
        op: str,
        failures: int,
        failure: BaseException,
        fetch_deadline: Deadline | None,
        span,
    ) -> None:
        """Classify one failed attempt; backoff or raise."""
        metrics = self.telemetry.metrics
        breaker = self._breakers[name]
        opened_before = breaker.times_opened
        breaker.record_failure()
        if breaker.times_opened > opened_before:
            metrics.counter("resilience.breaker.opened").increment()
        transient = is_transient(failure)
        retryable = transient and failures < self.policy.max_attempts
        backoff = (
            self.policy.backoff(failures, self._rngs[name])
            if retryable
            else 0.0
        )
        outcome = "transient-failure" if transient else "permanent-failure"
        self._record(
            name, op, failures, outcome, error=str(failure), backoff=backoff
        )
        metrics.counter(f"resilience.failures.{outcome}").increment()
        if not retryable:
            self._settle(name, DISPOSITION_FAILED)
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
                self._record(name, op, failures, "deadline")
                self._settle(name, DISPOSITION_FAILED)
                metrics.counter("resilience.deadline_exceeded").increment()
                span.set_attribute("outcome", "deadline")
                raise DeadlineExceededError(
                    f"backoff of {backoff:.3g}s for source {name!r} exceeds "
                    f"the remaining {deadline.remaining():.3g}s budget"
                ) from failure
        metrics.histogram("resilience.backoff.seconds").observe(backoff)
        self.telemetry.clock.wait(backoff)
