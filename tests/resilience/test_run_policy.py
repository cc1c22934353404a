"""The run-level resilience policies on their own: quorum and deadline.

``DegradationLedger.require_quorum`` decides whether enough sources
survived; ``arm_run_deadline`` starts one shared time budget on the
resilient sources of a run.  Neither needs a ``Wrangler``.
"""

import pytest

from repro.errors import DeadlineExceededError, DegradedRunError
from repro.obs import Telemetry
from repro.resilience import (
    DISPOSITION_FAILED,
    DISPOSITION_RECOVERED,
    DISPOSITION_SHORT_CIRCUITED,
    DegradationLedger,
    RetryPolicy,
    arm_run_deadline,
    resilient,
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
    def sources(self, policy, telemetry):
        plain = MemorySource("plain", [{"id": "1"}])
        table = resilient(
            MemorySource("table", [{"id": "1"}]), policy, telemetry=telemetry
        )
        pages = resilient(
            MemoryDocumentSource("pages", []), policy, telemetry=telemetry
        )
        return plain, table, pages

    @pytest.mark.parametrize("policy", [None, RetryPolicy()])
    def test_no_op_without_a_run_deadline(self, policy):
        telemetry = Telemetry.manual()
        plain, table, pages = self.sources(RetryPolicy(), telemetry)
        arm_run_deadline([plain, table, pages], policy, telemetry.clock)
        assert table.engine.run_deadline is None
        assert pages.engine.run_deadline is None

    def test_arms_one_shared_deadline_on_resilient_sources_only(self):
        telemetry = Telemetry.manual()
        policy = RetryPolicy(run_deadline=5.0)
        plain, table, pages = self.sources(policy, telemetry)
        arm_run_deadline([plain, table, pages], policy, telemetry.clock)
        deadline = table.engine.run_deadline
        assert deadline is not None and deadline is pages.engine.run_deadline
        assert deadline.remaining() == 5.0
        assert not hasattr(plain, "engine")

        assert len(table.fetch()) == 1
        telemetry.clock.wait(5.0)
        with pytest.raises(DeadlineExceededError, match="wrangle run|fetch"):
            table.fetch()

    def test_each_run_gets_a_fresh_budget(self):
        telemetry = Telemetry.manual()
        policy = RetryPolicy(run_deadline=5.0)
        __, table, __ = self.sources(policy, telemetry)
        arm_run_deadline([table], policy, telemetry.clock)
        telemetry.clock.wait(9.0)
        assert table.engine.run_deadline.expired
        arm_run_deadline([table], policy, telemetry.clock)
        assert table.engine.run_deadline.remaining() == 5.0
