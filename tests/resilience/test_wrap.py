"""The access guard: retries, cost accounting, telemetry.

The guard's contract: every physical attempt is the source's own
``fetch``/``probe`` (so it is charged at the source's cost), all waiting
is spent on the injected clock, each source name has its own breaker
and seeded jitter, and the ledger records exactly what happened.
"""

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    SourceError,
    TransientSourceError,
)
from repro.obs import Telemetry
from repro.resilience import (
    AccessGuard,
    ChaosSource,
    Deadline,
    DegradationLedger,
    FaultPlan,
    RetryPolicy,
)
from repro.sources.memory import MemoryDocumentSource, MemorySource

ROWS = [{"id": "1", "name": "alpha"}, {"id": "2", "name": "beta"}]


def flaky(name="flaky", fail_first=2, cost=1.0, telemetry=None):
    """A source that fails transiently ``fail_first`` times, then recovers."""
    inner = MemorySource(name, ROWS, cost_per_access=cost)
    return ChaosSource(
        inner,
        FaultPlan(fail_first=fail_first),
        clock=telemetry.clock if telemetry else None,
    )


def fetch(guard, source):
    """One guarded logical fetch of ``source``."""
    return guard.call(source.name, "fetch", source.fetch)


class TestRetrying:
    def test_retries_until_success(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=2, telemetry=telemetry)
        guard = AccessGuard(RetryPolicy(max_attempts=3), telemetry)
        table = fetch(guard, source)
        assert len(table) == 2
        assert source.loads == 3  # two failures + the success

    def test_each_physical_attempt_is_charged(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=2, cost=2.5, telemetry=telemetry)
        guard = AccessGuard(RetryPolicy(max_attempts=3), telemetry)
        fetch(guard, source)
        # 3 physical attempts x 2.5 per access, on the source itself.
        assert source.total_cost == pytest.approx(7.5)
        assert source.accesses == 3

    def test_attempts_exhausted_raises_the_last_error(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=10, telemetry=telemetry)
        guard = AccessGuard(RetryPolicy(max_attempts=3), telemetry)
        with pytest.raises(TransientSourceError):
            fetch(guard, source)
        assert source.loads == 3  # bounded: no fourth attempt

    def test_permanent_failure_fails_fast(self):
        telemetry = Telemetry.manual()
        inner = MemorySource("dead", ROWS)
        source = ChaosSource(
            inner, FaultPlan(dead=True), clock=telemetry.clock
        )
        guard = AccessGuard(RetryPolicy(max_attempts=5), telemetry)
        with pytest.raises(SourceError):
            fetch(guard, source)
        assert source.loads == 1  # permanent errors are not retried

    def test_backoff_spends_clock_time_not_wall_time(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=2, telemetry=telemetry)
        policy = RetryPolicy(
            max_attempts=3, base_delay=1.0, multiplier=2.0, jitter=0.0
        )
        fetch(AccessGuard(policy, telemetry), source)
        # Backoffs of 1s then 2s were spent by advancing the manual clock.
        assert telemetry.clock.current_time() == pytest.approx(3.0)

    def test_retry_schedule_is_deterministic(self):
        def run():
            telemetry = Telemetry.manual()
            source = flaky(fail_first=2, telemetry=telemetry)
            ledger = DegradationLedger()
            policy = RetryPolicy(max_attempts=3)
            fetch(AccessGuard(policy, telemetry, ledger), source)
            return ledger.export()

        assert run() == run()

    def test_jitter_is_seeded_per_source_name(self):
        policy = RetryPolicy(max_attempts=2)
        backoffs = {}
        for name in ("north", "south"):
            ledger = DegradationLedger()
            telemetry = Telemetry.manual()
            guard = AccessGuard(policy, telemetry, ledger)
            fetch(guard, flaky(name, fail_first=1, telemetry=telemetry))
            backoffs[name] = ledger.export()[name]["attempts"][0]["backoff"]
            expected = policy.backoff(1, policy.rng_for(name))
            assert backoffs[name] == pytest.approx(expected, abs=1e-6)
        assert backoffs["north"] != backoffs["south"]


class TestShapeAndDelegation:
    def test_document_sources_wrap_too(self):
        pages = [("http://x/1", "<html><body>hi</body></html>")]
        site = MemoryDocumentSource("web", pages)
        documents = fetch(AccessGuard(RetryPolicy()), site)
        assert len(documents) == 1
        assert documents[0].url == "http://x/1"

    def test_probe_goes_through_the_engine(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=1, telemetry=telemetry)
        guard = AccessGuard(RetryPolicy(max_attempts=2), telemetry)
        table = guard.call(source.name, "probe", lambda: source.probe(1))
        assert len(table) == 1
        assert source.loads == 2  # one failed + one successful probe load

    def test_delta_fetches_are_recorded_under_their_own_op(self):
        ledger = DegradationLedger()
        source = MemorySource("feed", ROWS, cursor="id")
        guard = AccessGuard(RetryPolicy(), ledger=ledger)
        batch = guard.call("feed", "fetch_delta", source.fetch_delta)
        assert batch.mode == "full"
        (attempt,) = ledger.export()["feed"]["attempts"]
        assert attempt["op"] == "fetch_delta"
        assert attempt["outcome"] == "success"


class TestBreakerIntegration:
    POLICY = RetryPolicy(
        max_attempts=2, breaker_threshold=2, breaker_cooldown=60.0,
        base_delay=0.0, jitter=0.0,
    )

    def test_short_circuit_skips_the_source_entirely(self):
        telemetry = Telemetry.manual()
        inner = MemorySource("down", ROWS)
        source = ChaosSource(
            inner, FaultPlan(fail_first=100), clock=telemetry.clock
        )
        ledger = DegradationLedger()
        guard = AccessGuard(self.POLICY, telemetry, ledger)
        with pytest.raises(TransientSourceError):
            fetch(guard, source)  # two failures open the circuit
        loads_before = source.loads
        with pytest.raises(CircuitOpenError):
            fetch(guard, source)  # refused without touching the source
        assert source.loads == loads_before
        assert source.total_cost == loads_before  # nothing charged
        entry = ledger.disposition("down")
        assert entry.disposition == "short-circuited"
        assert not entry.survived

    def test_each_source_name_has_its_own_breaker(self):
        telemetry = Telemetry.manual()
        down = ChaosSource(
            MemorySource("down", ROWS), FaultPlan(fail_first=100),
            clock=telemetry.clock,
        )
        guard = AccessGuard(self.POLICY, telemetry)
        with pytest.raises(TransientSourceError):
            fetch(guard, down)
        with pytest.raises(CircuitOpenError):
            fetch(guard, down)
        assert len(fetch(guard, MemorySource("up", ROWS))) == 2

    def test_breaker_recovers_after_cooldown(self):
        telemetry = Telemetry.manual()
        inner = MemorySource("s", ROWS)
        source = ChaosSource(
            inner, FaultPlan(fail_first=2), clock=telemetry.clock
        )
        policy = RetryPolicy(
            max_attempts=1, breaker_threshold=2, breaker_cooldown=30.0
        )
        guard = AccessGuard(policy, telemetry)
        for _ in range(2):
            with pytest.raises(TransientSourceError):
                fetch(guard, source)
        with pytest.raises(CircuitOpenError):
            fetch(guard, source)
        telemetry.clock.advance(30.0)
        table = fetch(guard, source)  # half-open trial succeeds, closes
        assert len(table) == 2


class TestDeadlines:
    def test_backoff_never_sleeps_past_the_fetch_deadline(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=5, telemetry=telemetry)
        policy = RetryPolicy(
            max_attempts=10, base_delay=10.0, jitter=0.0,
            fetch_deadline=5.0,
        )
        with pytest.raises(DeadlineExceededError):
            fetch(AccessGuard(policy, telemetry), source)
        # The 10s backoff exceeded the 5s budget: we stopped instead of
        # sleeping, so the clock never moved.
        assert telemetry.clock.current_time() == 0.0
        assert source.loads == 1

    def test_expired_run_deadline_refuses_new_attempts(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=0, telemetry=telemetry)
        guard = AccessGuard(RetryPolicy(), telemetry)
        guard.run_deadline = Deadline(telemetry.clock, 1.0)
        telemetry.clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            fetch(guard, source)
        assert source.loads == 0  # refused before any physical attempt


class TestTelemetryAndLedger:
    def test_metrics_count_attempts_and_retries(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=2, telemetry=telemetry)
        fetch(AccessGuard(RetryPolicy(max_attempts=3), telemetry), source)
        metrics = telemetry.metrics
        assert metrics.counter("resilience.attempts").value == 3
        assert metrics.counter("resilience.retries").value == 2
        assert metrics.counter("resilience.successes").value == 1
        assert (
            metrics.counter("resilience.failures.transient-failure").value
            == 2
        )
        assert metrics.gauge("resilience.breaker.state.flaky").value == 0.0

    def test_spans_record_the_outcome(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=1, telemetry=telemetry)
        fetch(AccessGuard(RetryPolicy(max_attempts=2), telemetry), source)
        (span,) = [
            s
            for s in telemetry.tracer.to_dicts()
            if s["name"] == "resilience.fetch"
        ]
        assert span["attributes"]["source"] == "flaky"
        assert span["attributes"]["outcome"] == "success"
        assert span["attributes"]["attempts"] == 2

    def test_ledger_tells_the_full_story(self):
        telemetry = Telemetry.manual()
        source = flaky(fail_first=2, telemetry=telemetry)
        ledger = DegradationLedger()
        guard = AccessGuard(RetryPolicy(max_attempts=3), telemetry, ledger)
        fetch(guard, source)
        entry = ledger.export()["flaky"]
        assert entry["disposition"] == "recovered"
        assert entry["survived"] is True
        outcomes = [a["outcome"] for a in entry["attempts"]]
        assert outcomes == [
            "transient-failure", "transient-failure", "success",
        ]
        assert entry["attempts"][0]["backoff"] > 0.0
        assert entry["attempts"][2]["backoff"] == 0.0
