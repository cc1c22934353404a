"""The kill-at-every-checkpoint matrix and its e2e recovery guarantees.

The contract under proof: kill the wrangler at *any* commit point —
before the journal write (progress lost) or after it (progress durable)
— and a resumed run over the same checkpoint store produces working data
and resolution output fingerprint-identical to an uninterrupted run,
with the source access ledger charged *exactly* what the crash window
implies: nothing extra for steps that committed, one redo of the single
step whose commit was lost.
"""

import datetime

import pytest

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, generate_world
from repro.errors import CheckpointError, InjectedCrashError
from repro.ingest.checkpoint import CheckpointStore, CrashPlan, RunLog
from repro.model.workingdata import table_fingerprint
from repro.obs import Telemetry
from repro.resilience import ChaosSource, FaultPlan
from repro.sources.base import PROBE_COST_FRACTION
from repro.sources.memory import MemorySource

TODAY = datetime.date(2016, 3, 15)


@pytest.fixture(scope="module")
def world():
    return generate_world(n_products=10, n_sources=2, seed=77)


def make_wrangler(
    world, store=None, fault_plans=None, source_rows=None, cursor=None
):
    source_rows = source_rows or world.source_rows
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=50.0)
    data = DataContext("products").with_ontology(product_ontology())
    data.add_master("catalog", world.ground_truth)
    telemetry = Telemetry.manual()
    wrangler = Wrangler(
        user,
        data,
        master_key="catalog",
        join_attribute="product",
        today=TODAY,
        telemetry=telemetry,
    )
    sources = {}
    for name in sorted(source_rows):
        source = MemorySource(
            name,
            source_rows[name],
            cost_per_access=world.specs[name].cost,
            cursor=cursor,
        )
        if fault_plans and name in fault_plans:
            source = ChaosSource(
                source, fault_plans[name], clock=telemetry.clock
            )
        wrangler.add_source(source)
        sources[name] = source
    if store is not None:
        wrangler.checkpointing(store)
    return wrangler, sources


def run_to_completion(world, root, fault_plans=None):
    """One uninterrupted (or resumed) checkpointed run over ``root``."""
    store = CheckpointStore(root)
    wrangler, sources = make_wrangler(world, store=store, fault_plans=fault_plans)
    result = wrangler.run()
    return wrangler, sources, result


def access_totals(sources):
    return {name: source.accesses for name, source in sources.items()}


def step_charge(step):
    """Extra ledger accesses a lost (uncommitted) step costs on redo."""
    if step.startswith("probe:"):
        return {step.split(":", 1)[1]: PROBE_COST_FRACTION}
    if step.startswith("acquire:"):
        return {step.split(":", 1)[1]: 1.0}
    return {}


@pytest.fixture(scope="module")
def baseline(world, tmp_path_factory):
    wrangler, sources, result = run_to_completion(
        world, tmp_path_factory.mktemp("baseline")
    )
    return {
        "steps": list(result.ingest["steps"]),
        "final": table_fingerprint(result.table),
        "working": wrangler.working.table_fingerprints(),
        "accesses": access_totals(sources),
        "access_cost": result.access_cost,
    }


class TestKillAtEveryCheckpoint:
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_matrix(self, world, baseline, tmp_path, when):
        # "begin" is the journal's very first write; every committed step
        # after it is a distinct crash window with two sides.
        for step in ["begin"] + baseline["steps"]:
            root = tmp_path / f"{when}-{step.replace(':', '_')}"
            store = CheckpointStore(
                root, crash_plan=CrashPlan.at(step, when=when)
            )
            crashed, crashed_sources = make_wrangler(world, store=store)
            with pytest.raises(InjectedCrashError):
                crashed.run()
            resumed, resumed_sources, result = run_to_completion(world, root)

            context = f"crash {when} {step!r}"
            assert result.ingest["steps"] == baseline["steps"], context
            assert (
                table_fingerprint(result.table) == baseline["final"]
            ), context
            assert (
                resumed.working.table_fingerprints() == baseline["working"]
            ), context

            totals = {
                name: crashed_sources[name].accesses
                + resumed_sources[name].accesses
                for name in crashed_sources
            }
            expected = dict(baseline["accesses"])
            if when == "before":
                # The step's work ran but its commit was lost — exactly
                # one redo is charged; a committed step is never redone.
                for name, extra in step_charge(step).items():
                    expected[name] += extra
            if when == "after" and step == "complete":
                # The run finished durably before dying; what follows is
                # not a resume but a legitimate second run, fully charged.
                assert result.ingest["resumed"] is False, context
                assert result.ingest["run_id"] == "run-002", context
                expected = {
                    name: value * 2
                    for name, value in baseline["accesses"].items()
                }
            assert totals == pytest.approx(expected), context

    def test_after_crash_resume_restores_rather_than_refetches(
        self, world, baseline, tmp_path
    ):
        acquire_steps = [
            s for s in baseline["steps"] if s.startswith("acquire:")
        ]
        assert acquire_steps, "plan acquired no sources — fixture broken"
        step = acquire_steps[0]
        root = tmp_path / "restore"
        store = CheckpointStore(root, crash_plan=CrashPlan.at(step))
        crashed, _ = make_wrangler(world, store=store)
        with pytest.raises(InjectedCrashError):
            crashed.run()
        _, _, result = run_to_completion(world, root)
        assert result.ingest["resumed"] is True
        assert result.ingest["resumed_from"] == step
        assert step in result.ingest["restored_steps"]
        assert "resumed from" in result.explain()


class TestTwoCrashesTwoResumes:
    def test_double_death_still_converges(self, world, baseline, tmp_path):
        steps = baseline["steps"]
        first, second = [s for s in steps if s.startswith("acquire:")][:2]
        root = tmp_path / "twice"

        store = CheckpointStore(root, crash_plan=CrashPlan.at(first))
        w1, s1 = make_wrangler(world, store=store)
        with pytest.raises(InjectedCrashError):
            w1.run()

        store = CheckpointStore(root, crash_plan=CrashPlan.at(second))
        w2, s2 = make_wrangler(world, store=store)
        with pytest.raises(InjectedCrashError):
            w2.run()

        w3, s3, result = run_to_completion(world, root)
        assert result.ingest["resumed"] is True
        assert table_fingerprint(result.table) == baseline["final"]
        assert w3.working.table_fingerprints() == baseline["working"]
        totals = {
            name: s1[name].accesses + s2[name].accesses + s3[name].accesses
            for name in s1
        }
        # Both deaths struck *after* their commits: three processes, zero
        # duplicate charges on the ledger.
        assert totals == pytest.approx(baseline["accesses"])


class TestCorruptJournal:
    def test_quarantine_then_restart_from_scratch(
        self, world, baseline, tmp_path
    ):
        root = tmp_path / "rot"
        step = [
            s for s in baseline["steps"] if s.startswith("acquire:")
        ][1]
        store = CheckpointStore(root, crash_plan=CrashPlan.at(step))
        w1, _ = make_wrangler(world, store=store)
        with pytest.raises(InjectedCrashError):
            w1.run()

        (root / "journal.json").write_bytes(b"this is not a journal")
        w2, _ = make_wrangler(world, store=CheckpointStore(root))
        with pytest.raises(CheckpointError):
            w2.run()
        assert CheckpointStore(root).quarantined(), "journal not set aside"

        # The quarantine cleared the slate: the next run is fresh, whole,
        # and produces the same data as an uninterrupted run.
        _, _, result = run_to_completion(world, root)
        assert result.ingest["resumed"] is False
        assert table_fingerprint(result.table) == baseline["final"]


class TestProcessDeathMidAcquisition:
    def test_die_inside_the_source_then_resume(
        self, world, baseline, tmp_path
    ):
        victim = next(
            s.split(":", 1)[1]
            for s in baseline["steps"]
            if s.startswith("acquire:")
        )
        # Load #1 is the probe (committed); load #2 is the acquisition
        # fetch — death strikes after the charge, before the commit.
        plans = {victim: FaultPlan(die_at_step=2)}
        root = tmp_path / "die"
        store = CheckpointStore(root)
        w1, s1 = make_wrangler(world, store=store, fault_plans=plans)
        with pytest.raises(InjectedCrashError):
            w1.run()

        w2, s2, result = run_to_completion(
            world, root, fault_plans={victim: FaultPlan()}
        )
        assert result.ingest["resumed"] is True
        assert table_fingerprint(result.table) == baseline["final"]
        assert w2.working.table_fingerprints() == baseline["working"]
        totals = {
            name: s1[name].accesses + s2[name].accesses for name in s1
        }
        expected = dict(baseline["accesses"])
        expected[victim] += 1.0  # the one fetch whose commit never landed
        assert totals == pytest.approx(expected)


class TestJournalHoldsWhatRecoveryReads:
    """Every step a run commits other than ``complete`` is one a resume
    reads back — nothing is journaled that recovery never asks for."""

    def test_every_committed_step_is_restored_on_resume(
        self, world, baseline, tmp_path, monkeypatch
    ):
        store = CheckpointStore(
            tmp_path, crash_plan=CrashPlan.at("complete", when="before")
        )
        crashed, _ = make_wrangler(world, store=store)
        with pytest.raises(InjectedCrashError):
            crashed.run()
        committed = [s for s in baseline["steps"] if s != "complete"]

        served = {}
        restored = RunLog.restored

        def spy(log, step):
            payload = restored(log, step)
            served[step] = payload is not None
            return payload

        monkeypatch.setattr(RunLog, "restored", spy)
        _, sources, result = run_to_completion(world, tmp_path)
        assert result.ingest["resumed"] is True
        assert result.ingest["restored_steps"] == sorted(committed)
        assert served == dict.fromkeys(committed, True)
        assert access_totals(sources) == dict.fromkeys(sources, 0.0)
        assert table_fingerprint(result.table) == baseline["final"]

    def test_refresh_tick_commits_three_times(self, world, tmp_path):
        rows = {
            name: [dict(row, seq=seq) for seq, row in enumerate(source_rows)]
            for name, source_rows in world.source_rows.items()
        }
        store = CheckpointStore(tmp_path)
        wrangler, sources = make_wrangler(
            world,
            store=store,
            source_rows={name: full[:-2] for name, full in rows.items()},
            cursor="seq",
        )
        first = wrangler.run()
        commits = wrangler.telemetry.metrics.counter("ingest.commits")
        commits_before, objects_before = commits.value, len(store.snapshots)

        name = first.plan.sources[0]
        sources[name].replace_rows(rows[name])
        wrangler.refresh_source(name)
        result = wrangler.run()
        assert result.ingest["steps"] == [f"acquire:{name}", "complete"]
        assert result.ingest["acquisitions"][name]["mode"] == "delta"
        # begin, the refreshed acquisition, complete — and at most the
        # refreshed source's view plus the run's output as new objects.
        assert commits.value - commits_before == 3
        assert len(store.snapshots) - objects_before <= 2

    def test_every_journal_write_runs_under_a_checkpoint_span(
        self, world, tmp_path
    ):
        wrangler, _, result = run_to_completion(world, tmp_path)
        spans = wrangler.telemetry.tracer.find("ingest.checkpoint")
        assert [span.attributes["step"] for span in spans] == (
            ["begin"] + result.ingest["steps"]
        )
        assert result.ingest["steps"][-1] == "complete"
        commits = wrangler.telemetry.metrics.counter("ingest.commits").value
        assert len(spans) == commits
