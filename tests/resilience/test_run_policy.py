"""The run-level resilience policies on their own: quorum and deadline.

``DegradationLedger.require_quorum`` decides whether enough sources
survived; ``AccessGuard.arm`` starts one time budget shared by every
guarded access of a run.  Neither needs a ``Wrangler``.
"""

import pytest

from repro.errors import DeadlineExceededError, DegradedRunError
from repro.obs import Telemetry
from repro.resilience import (
    DISPOSITION_FAILED,
    DISPOSITION_RECOVERED,
    DISPOSITION_SHORT_CIRCUITED,
    AccessGuard,
    DegradationLedger,
    RetryPolicy,
)
from repro.sources.memory import MemoryDocumentSource, MemorySource

NAMES = ["a", "b", "c", "d"]


def ledger_with(**dispositions):
    ledger = DegradationLedger()
    for name, disposition in dispositions.items():
        ledger.settle(name, disposition, "closed")
    return ledger


class TestRequireQuorum:
    @pytest.mark.parametrize("quorum", [0, 0.0, -1])
    def test_no_quorum_never_raises(self, quorum):
        ledger = ledger_with(**{name: DISPOSITION_FAILED for name in NAMES})
        ledger.require_quorum(NAMES, quorum)

    @pytest.mark.parametrize(
        "quorum, raises",
        [
            (0.5, False),   # a fraction of the names: 2 of 4 needed, 2 alive
            (0.51, True),   # 2.04 needed
            (2, False),     # an absolute count from 1 up
            (3, True),
            (1, False),     # 1 is a count, not "all of them"
        ],
    )
    def test_fraction_below_one_absolute_count_from_one(self, quorum, raises):
        # "a" never touched (= survived), "b" recovered, "c" and "d" dead.
        ledger = ledger_with(
            b=DISPOSITION_RECOVERED,
            c=DISPOSITION_FAILED,
            d=DISPOSITION_SHORT_CIRCUITED,
        )
        if not raises:
            ledger.require_quorum(NAMES, quorum)
            return
        with pytest.raises(DegradedRunError) as failure:
            ledger.require_quorum(NAMES, quorum)
        assert failure.value.dead == ("c", "d")

    def test_message_names_the_count_the_quorum_and_the_dead(self):
        ledger = ledger_with(b=DISPOSITION_FAILED, d=DISPOSITION_FAILED)
        with pytest.raises(DegradedRunError) as failure:
            ledger.require_quorum(NAMES, 0.75)
        assert str(failure.value) == (
            "only 2/4 sources survived acquisition (quorum 0.75); dead: b, d"
        )
        with pytest.raises(DegradedRunError) as failure:
            ledger.require_quorum(NAMES, 3.0)
        assert str(failure.value) == (
            "only 2/4 sources survived acquisition (quorum 3); dead: b, d"
        )


class TestArmRunDeadline:
    @pytest.mark.parametrize("policy", [None, RetryPolicy()])
    def test_no_op_without_a_run_deadline(self, policy):
        telemetry = Telemetry.manual()
        guard = AccessGuard(policy, telemetry)
        guard.arm()
        assert guard.run_deadline is None

    def test_arms_one_shared_deadline_on_resilient_sources_only(self):
        telemetry = Telemetry.manual()
        guard = AccessGuard(RetryPolicy(run_deadline=5.0), telemetry)
        guard.arm()
        assert guard.run_deadline.remaining() == 5.0
        table = MemorySource("table", [{"id": "1"}])
        pages = MemoryDocumentSource("pages", [])

        assert len(guard.call("table", "fetch", table.fetch)) == 1
        telemetry.clock.wait(5.0)
        # Every guarded access shares the one spent budget ...
        for source in (table, pages):
            with pytest.raises(DeadlineExceededError, match=source.name):
                guard.call(source.name, "fetch", source.fetch)
        # ... and an access that bypasses the guard is not bound by it.
        assert len(table.fetch()) == 1

    def test_each_run_gets_a_fresh_budget(self):
        telemetry = Telemetry.manual()
        guard = AccessGuard(RetryPolicy(run_deadline=5.0), telemetry)
        guard.arm()
        telemetry.clock.wait(9.0)
        assert guard.run_deadline.expired
        guard.arm()
        assert guard.run_deadline.remaining() == 5.0
