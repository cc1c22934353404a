"""ER and fusion work carried from one run to the next, against fresh work.

A run leaves its resolve's score tables and its fuser's fused records
for the next run (``Wrangler._scoring``, ``EntityFuser.fuse(previous=)``);
the next run reads them instead of scoring or fusing again.  A delta
refresh keeps the records of the rows it did not change, so the mapped
records, the clusters and the fused records of those rows carry too.
The oracle: after every tick of a refresh script and of feedback
sessions, a fresh ``EntityResolver`` and ``EntityFuser`` on the same
inputs — nothing carried — give the same clusters, the same matched
pairs with their confidences and the same fused table.  And the carried
state is bounded by the last run: it holds nothing the latest resolve or
fuse did not touch, and the checkpoint store holds one live view per
source.
"""

import csv
import datetime
import gc
import importlib.util
import random
import weakref
from pathlib import Path

import pytest

from repro import CSVSource, DataContext, UserContext, Wrangler
import repro.resolution.er
from repro.datagen import TARGET_SCHEMA, generate_world, product_ontology
from repro.feedback import DuplicateFeedback
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

    def __init__(self, root: Path, cursor: str | None = "seq") -> None:
        self.world = generate_world(n_products=60, n_sources=6, seed=2016)
        self.paths, self.held_back, self.seq = {}, {}, 0
        root.mkdir(parents=True, exist_ok=True)
        for name, rows in self.world.source_rows.items():
            cut = int(0.6 * len(rows))
            self.paths[name] = root / f"{name}.csv"
            self.held_back[name] = rows[cut:]
            self.append(name, rows[:cut], header=True)
        self.store = CheckpointStore(root / "checkpoints")
        self.wrangler = self.fresh_wrangler(cursor).checkpointing(self.store)
        self.result = self.wrangler.run()

    def fresh_wrangler(self, cursor="seq"):
        """A wrangler over the script's files, nothing run yet."""
        user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=40.0)
        data = (
            DataContext("products")
            .with_ontology(product_ontology())
            .add_master("catalog", self.world.ground_truth)
        )
        wrangler = Wrangler(user, data, today=TODAY)
        for name, path in self.paths.items():
            spec = self.world.specs[name]
            wrangler.add_source(CSVSource(
                name, path, cursor=cursor,
                cost_per_access=spec.cost, change_rate=spec.staleness,
                domain="products",
            ))
        return wrangler

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
        """Append five rows to one planned source and refresh it; the
        name of the source."""
        sources = self.result.plan.sources
        name = sources[index % len(sources)]
        rows, self.held_back[name] = (
            self.held_back[name][:5], self.held_back[name][5:]
        )
        self.append(name, rows)
        self.wrangler.refresh_source(name)
        self.result = self.wrangler.run()
        return name

    def edit_behind_the_cursor(self, name):
        """Rewrite one committed row of ``name`` in place and refresh:
        the delta cannot be merged, and the tick refetches in full."""
        with self.paths[name].open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        column = next(key for key in rows[0] if key not in ("_truth", "seq"))
        rows[0][column] += " (edited)"
        with self.paths[name].open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        self.wrangler.refresh_source(name)
        self.result = self.wrangler.run()


def test_a_refresh_script_carries_exactly_what_fresh_work_computes(tmp_path):
    script = RefreshScript(tmp_path)
    flow = script.wrangler.flow
    for index in range(6):
        resolves = flow.runs("resolve")
        fused = {row.rid: row for row in flow.value("fuse")}
        name = script.tick(index)
        assert flow.runs("resolve") == resolves + 1
        assert_carried_equals_fresh(script.wrangler)
        # A cluster without one of the five appended rows keeps its fused
        # record, whichever source its rows come from.
        appended = {record.rid for record in flow.value(f"acquire:{name}")[-5:]}
        after = {row.rid: row for row in flow.value("fuse")}
        untouched = [
            cluster.cluster_id for cluster in flow.value("resolve").clusters
            if not appended & {record.rid for record in cluster.records}
        ]
        assert len(untouched) >= len(after) - 5
        assert all(after[key] is fused[key] for key in untouched)


def test_the_store_holds_one_live_view_per_source(tmp_path):
    """After ten ticks each source's live view is the view behind its
    watermark; every superseded view is collected, and after a full
    refetch so are the records only the superseded view held."""
    script = RefreshScript(tmp_path)
    views = {}
    for index in range(10):
        name = script.tick(index)
        views.setdefault(name, []).append(
            weakref.ref(script.store._views[name][1])
        )
    watermarks = script.store.load_state()["watermarks"]
    assert {name: held[0] for name, held in script.store._views.items()} == {
        name: watermarks[name]["snapshot"] for name in views
    }
    gc.collect()
    superseded = [ref for refs in views.values() for ref in refs[:-1]]
    assert superseded and all(ref() is None for ref in superseded)

    name = script.result.plan.sources[0]
    old = [weakref.ref(record) for record in script.store._views[name][1]]
    script.edit_behind_the_cursor(name)
    assert script.result.ingest["acquisitions"][name]["mode"] == "fallback-full"
    gc.collect()
    assert all(ref() is None for ref in old)


def test_duplicate_feedback_survives_a_delta_refresh(tmp_path, monkeypatch):
    """A verdict on two records of a source still labels a pair the
    threshold is refitted on after that source is delta-refreshed: the
    refresh keeps their record ids."""
    script = RefreshScript(tmp_path)
    name = script.result.plan.sources[0]
    left, right = [
        record for record in script.wrangler.flow.value("translate")
        if record.source == name
    ][:2]
    fitted = []
    refit_threshold = repro.resolution.er.refit_threshold

    def spy(prior, similarities, verdicts):
        fitted.append(list(verdicts))
        return refit_threshold(prior, similarities, verdicts)

    monkeypatch.setattr(repro.resolution.er, "refit_threshold", spy)
    script.wrangler.apply_feedback([DuplicateFeedback(
        rid_a=left.rid, rid_b=right.rid, is_duplicate=False,
    )])
    script.result = script.wrangler.run()
    assert fitted[-1] == [False]
    assert script.tick(0) == name
    assert script.result.ingest["acquisitions"][name]["mode"] == "delta"
    assert fitted[-1] == [False]


def test_delta_ticks_equal_full_refetches(tmp_path):
    """delta∘delta equals full: four delta ticks end on the table a twin
    script refetching every refresh in full ends on, and every acquired
    view is the one a fresh wrangler's full run reads off the files."""
    delta = RefreshScript(tmp_path / "delta")
    full = RefreshScript(tmp_path / "full", cursor=None)
    for index in range(4):
        assert delta.tick(index) == full.tick(index)
        modes = {entry["mode"] for entry in delta.result.ingest["acquisitions"].values()}
        assert modes == {"delta"}
        assert {
            entry["mode"] for entry in full.result.ingest["acquisitions"].values()
        } == {"full"}
    assert table_fingerprint(delta.result.table) == table_fingerprint(
        full.result.table
    )
    assert delta.wrangler.working.table_fingerprints() == (
        full.wrangler.working.table_fingerprints()
    )
    fresh = delta.fresh_wrangler()
    fresh.run()
    tables = fresh.working.table_fingerprints()
    assert {
        key: value for key, value in delta.wrangler.working.table_fingerprints().items()
        if key.startswith("raw/")
    } == {key: value for key, value in tables.items() if key.startswith("raw/")}


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
