"""ER and fusion work carried from one run to the next, against fresh work.

A run leaves its resolve's score tables and its fuser's fused records
for the next run (``Wrangler._scoring``, ``EntityFuser.fuse(previous=)``);
the next run reads them instead of scoring or fusing again.  The oracle:
after every tick of a refresh script and of feedback sessions, a fresh
``EntityResolver`` and ``EntityFuser`` on the same inputs — nothing
carried — give the same clusters, the same matched pairs with their
confidences and the same fused table.  And the carried state is bounded
by the last run: it holds nothing the latest resolve or fuse did not
touch.
"""

import csv
import datetime
import importlib.util
import random
from pathlib import Path

import pytest

from repro import CSVSource, DataContext, UserContext, Wrangler
from repro.datagen import TARGET_SCHEMA, generate_world, product_ontology
from repro.fusion.fuse import EntityFuser
from repro.ingest.checkpoint import CheckpointStore
from repro.model.workingdata import table_fingerprint
from repro.resolution.comparison import ScoringContext, profiled_comparator
from repro.resolution.er import EntityResolver, refit_rule

SESSION_PIN = Path(__file__).with_name("test_feedback_session_pin.py")
TODAY = datetime.date(2016, 3, 15)


def _session_pin():
    spec = importlib.util.spec_from_file_location("session_pin", SESSION_PIN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def answers(resolution, fused):
    return (
        [(c.cluster_id, [r.rid for r in c.records]) for c in resolution.clusters],
        resolution.matched_pairs,
        table_fingerprint(fused),
    )


def fresh_work(wrangler):
    """The resolve, refit and fuse of the latest run's inputs, from
    scratch: ``(rule, resolution, fused, scoring context)``."""
    flow = wrangler.flow
    translated, plan = flow.value("translate"), flow.value("plan")
    scores = ScoringContext(profiled_comparator(
        wrangler.user.target_schema, translated,
        attributes=list(plan.er_attributes) or None,
    ))
    rule = refit_rule(
        plan.er_threshold, scores, translated,
        wrangler.feedback.duplicate_labels(),
    )
    resolution = EntityResolver(comparator=scores, rule=rule).resolve(translated)
    fuser = EntityFuser(
        wrangler.user.target_schema,
        reliabilities=wrangler._source_reliabilities(),
        default_strategy=plan.fusion_strategy,
        strategy_overrides=plan.fusion_overrides,
        recency_attribute=wrangler.date_attribute,
        precedence=flow.value("rank"),
    )
    fused = fuser.apply_verdicts(
        fuser.fuse(resolution.clusters),
        resolution.clusters,
        wrangler.feedback.rejected_values(),
    )
    return rule, resolution, fused, scores


def assert_carried_equals_fresh(wrangler):
    flow = wrangler.flow
    rule, resolution, fused, __ = fresh_work(wrangler)
    assert flow.value("refit") == rule
    assert answers(flow.value("resolve"), flow.value("fuse")) == answers(
        resolution, fused
    )


class RefreshScript:
    """``bench/workloads.py::RefreshDurable`` at quickstart size: six
    CSV sources under a zero-padded cursor and a checkpoint store, five
    appended rows and a delta refresh of one source per tick."""

    def __init__(self, root: Path) -> None:
        world = generate_world(n_products=60, n_sources=6, seed=2016)
        user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=40.0)
        data = (
            DataContext("products")
            .with_ontology(product_ontology())
            .add_master("catalog", world.ground_truth)
        )
        self.wrangler = Wrangler(user, data, today=TODAY)
        self.paths, self.held_back, self.seq = {}, {}, 0
        for name, rows in world.source_rows.items():
            cut = int(0.6 * len(rows))
            self.paths[name] = root / f"{name}.csv"
            self.held_back[name] = rows[cut:]
            self.append(name, rows[:cut], header=True)
            spec = world.specs[name]
            self.wrangler.add_source(CSVSource(
                name, self.paths[name], cursor="seq",
                cost_per_access=spec.cost, change_rate=spec.staleness,
                domain="products",
            ))
        self.wrangler.checkpointing(CheckpointStore(root / "checkpoints"))
        self.result = self.wrangler.run()

    def append(self, name, rows, header=False):
        columns = list(rows[0]) + ["seq"]
        with self.paths[name].open(
            "w" if header else "a", newline="", encoding="utf-8"
        ) as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            if header:
                writer.writeheader()
            for row in rows:
                writer.writerow({**row, "seq": f"{self.seq:06d}"})
                self.seq += 1

    def tick(self, index):
        sources = self.result.plan.sources
        name = sources[index % len(sources)]
        rows, self.held_back[name] = (
            self.held_back[name][:5], self.held_back[name][5:]
        )
        self.append(name, rows)
        self.wrangler.refresh_source(name)
        self.result = self.wrangler.run()


def test_a_refresh_script_carries_exactly_what_fresh_work_computes(tmp_path):
    script = RefreshScript(tmp_path)
    reused = 0
    for index in range(6):
        resolves = script.wrangler.flow.runs("resolve")
        fuser = script.wrangler._fuser
        script.tick(index)
        assert script.wrangler.flow.runs("resolve") == resolves + 1
        assert_carried_equals_fresh(script.wrangler)
        fused = {row.rid: row for row in script.wrangler.flow.value("fuse")}
        reused += sum(
            fused.get(cluster_id) is entry[1]
            for cluster_id, entry in fuser._fused.items()
        )
    assert reused > 0   # the mechanism engaged: some clusters were not re-fused


@pytest.mark.parametrize("seed, reaches", [(5, "refit"), (9, "plan")])
def test_a_feedback_session_carries_exactly_what_fresh_work_computes(
    seed, reaches
):
    """Value, duplicate, match and relevance ticks; seed 5 reaches a
    duplicate verdict whose refit moves the rule, seed 9 a replan."""
    pin = _session_pin()
    world = generate_world(n_products=60, n_sources=6, seed=2016)
    wrangler = pin._quickstart().build_wrangler(world)
    rng = random.Random(seed)
    result = wrangler.run()
    reached = set()
    for index in range(pin.TICKS):
        item = pin._item(
            pin.KINDS[index % len(pin.KINDS)], index // len(pin.KINDS),
            rng, world, wrangler, result,
        )
        rule = wrangler.flow.value("refit")
        wrangler.apply_feedback([item])
        invalidated = wrangler.telemetry.tracer.find("feedback.apply")[-1]
        result = wrangler.run()
        if "plan" in invalidated.attributes["invalidated"]:
            reached.add("plan")
        if wrangler.flow.value("refit") != rule:
            reached.add("refit")
        assert_carried_equals_fresh(wrangler)
    assert reaches in reached


def test_carried_state_holds_only_what_the_latest_run_touched(tmp_path):
    script = RefreshScript(tmp_path)
    for index in range(4):
        script.tick(index)
    wrangler = script.wrangler
    carried = wrangler._resolved_scores
    __, resolution, __, fresh = fresh_work(wrangler)

    # Detached: nothing reads through to an earlier run any more.
    assert carried._carried == {} and carried.names._previous is None
    # The value pairs the latest refit and resolve scored, and no others.
    assert {m: set(t) for m, t in carried._tables.items()} == {
        m: set(t) for m, t in fresh._tables.items()
    }
    for measure, table in carried._tables.items():
        assert table == fresh._tables[measure]
    # Name tables: a value pair read from the last run's table never
    # reaches the token tables, so they hold at most what fresh work does.
    for name in ("_tokens", "_pairs"):
        kept, needed = getattr(carried.names, name), getattr(fresh.names, name)
        assert set(kept) <= set(needed)
        assert all(kept[key] == needed[key] for key in kept)
    # The fuser remembers the clusters of the latest fuse, and only those.
    memo = wrangler._fuser._fused
    assert set(memo) == {c.cluster_id for c in resolution.clusters}
    for cluster in resolution.clusters:
        assert sorted(id(r) for r in memo[cluster.cluster_id][0]) == sorted(
            id(r) for r in cluster.records
        )
