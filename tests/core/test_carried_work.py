"""ER and fusion work carried from one run to the next, against fresh work.

A run leaves its resolve's score tables, its resolve's per-record and
per-pair work (blocking tokens, kernel column entries, per-field kernel
bounds, field vectors — ``EntityResolver.resolve(previous=)``) and its
fuser's fused records for the next run (``Wrangler._scoring``,
``EntityFuser.fuse(previous=)``); the next run reads them instead of
scoring or fusing again.  A delta
refresh keeps the records of the rows it did not change, so the mapped
records, the clusters and the fused records of those rows carry too.
The oracle: after every tick of a refresh script and of feedback
sessions, a fresh ``EntityResolver`` and ``EntityFuser`` on the same
inputs — nothing carried — give the same clusters, the same matched
pairs with their confidences, the same per-resolve kernel and blocking
counters and the same fused table; on hand-built tables, so do blocks
that cross ``MAX_BLOCK_SIZE`` either way and pairs whose records swap
order.  And the carried
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

import numpy as np
import pytest

from repro import CSVSource, DataContext, UserContext, Wrangler
import repro.resolution.er
from repro.datagen import TARGET_SCHEMA, generate_world, product_ontology
from repro.feedback import DuplicateFeedback
from repro.fusion.fuse import EntityFuser
from repro.ingest.checkpoint import CheckpointStore
from repro.model.records import Record, Table
from repro.model.schema import Attribute, Schema
from repro.model.workingdata import table_fingerprint
from repro.obs import MetricsRegistry
from repro.resolution.blocking import MAX_BLOCK_SIZE
from repro.resolution.comparison import (
    FieldComparator,
    RecordComparator,
    ScoringContext,
    profiled_comparator,
)
from repro.resolution.er import EntityResolver, refit_rule
from repro.resolution.rules import ThresholdRule

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


#: The per-resolve counters carried work must leave where fresh work puts
#: them: what blocking dropped, what the kernels bounded and pruned.
RESOLVE_COUNTERS = (
    "kernels.candidates", "kernels.pruned", "kernels.survivors",
    "blocking.dropped_blocks", "blocking.dropped_members",
)


def counts(metrics, names=RESOLVE_COUNTERS):
    return {name: metrics.counter(name).value for name in names}


def moved(before, after):
    return {name: after[name] - before[name] for name in after}


def fresh_work(wrangler, metrics=None):
    """The resolve, refit and fuse of the latest run's inputs, from
    scratch: ``(rule, resolution, fused, scoring context)``; the resolve
    counts on ``metrics``."""
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
    resolution = EntityResolver(
        comparator=scores, rule=rule, metrics=metrics
    ).resolve(translated)
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


def assert_carried_equals_fresh(wrangler, resolve_counts=None):
    """Carried work answers what fresh work does; ``resolve_counts``, the
    counters the latest run's resolve moved, are fresh work's too."""
    flow = wrangler.flow
    metrics = MetricsRegistry()
    rule, resolution, fused, __ = fresh_work(wrangler, metrics)
    assert flow.value("refit") == rule
    assert answers(flow.value("resolve"), flow.value("fuse")) == answers(
        resolution, fused
    )
    if resolve_counts is not None:
        assert resolve_counts == counts(metrics)


class RefreshScript:
    """``bench/workloads.py::RefreshDurable`` at quickstart size: six
    CSV sources under a zero-padded cursor and a checkpoint store, five
    appended rows and a delta refresh of one source per tick."""

    def __init__(
        self, root: Path, cursor: str | None = "seq", n_products: int = 60
    ) -> None:
        self.world = generate_world(
            n_products=n_products, n_sources=6, seed=2016
        )
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
    metrics = script.wrangler.telemetry.metrics
    for index in range(6):
        resolves = flow.runs("resolve")
        fused = {row.rid: row for row in flow.value("fuse")}
        before = counts(metrics)
        name = script.tick(index)
        assert flow.runs("resolve") == resolves + 1
        assert_carried_equals_fresh(
            script.wrangler, moved(before, counts(metrics))
        )
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
    metrics = wrangler.telemetry.metrics
    rng = random.Random(seed)
    result = wrangler.run()
    reached = set()
    for index in range(pin.TICKS):
        item = pin._item(
            pin.KINDS[index % len(pin.KINDS)], index // len(pin.KINDS),
            rng, world, wrangler, result,
        )
        rule = wrangler.flow.value("refit")
        resolves = wrangler.flow.runs("resolve")
        before = counts(metrics)
        wrangler.apply_feedback([item])
        invalidated = wrangler.telemetry.tracer.find("feedback.apply")[-1]
        result = wrangler.run()
        if "plan" in invalidated.attributes["invalidated"]:
            reached.add("plan")
        if wrangler.flow.value("refit") != rule:
            reached.add("refit")
        assert_carried_equals_fresh(
            wrangler,
            moved(before, counts(metrics))
            if wrangler.flow.runs("resolve") == resolves + 1 else None,
        )
    assert reaches in reached


def test_carried_state_holds_only_what_the_latest_run_touched(tmp_path):
    """The carried resolve work is keyed by exactly the latest resolve's
    records and candidate pairs and equals fresh work's wherever both
    have an entry; the score tables hold at most what fresh work fills
    (a carried field vector reads no value pair), with equal entries;
    the work before the latest is collected."""
    script = RefreshScript(tmp_path)
    for index in range(3):
        script.tick(index)
    earlier = weakref.ref(script.wrangler.flow.value("resolve")._work)
    script.tick(3)
    wrangler = script.wrangler
    carried = wrangler._resolved_scores
    __, resolution, __, fresh = fresh_work(wrangler)
    work, fresh_work_done = wrangler.flow.value("resolve")._work, resolution._work

    gc.collect()
    assert earlier() is None
    # Detached: nothing reads through to an earlier run any more.
    assert work._previous is None
    assert carried._carried == {} and carried.names._previous is None
    # Keyed by the latest resolve's records and candidate pairs, no others.
    translated = wrangler.flow.value("translate")
    assert len(work.records) == len(translated.records)
    assert all(a is b for a, b in zip(work.records, translated.records))
    assert work.pairs.tolist() == fresh_work_done.pairs.tolist()
    assert work.bounds.shape == fresh_work_done.bounds.shape
    assert work.vectors.shape == (work.pairs.shape[0],)
    # Each entry is the one fresh work computes.
    assert np.array_equal(work.bounds, fresh_work_done.bounds)
    assert np.array_equal(work.comparable, fresh_work_done.comparable)
    assert work.tokens == fresh_work_done.tokens
    for index, entries in enumerate(work.entries):
        if entries is not None:
            assert entries == fresh_work_done.entries[index]
    oracle = ScoringContext(fresh.comparator)
    scored = 0
    for (left, right), vector in zip(work.pairs.tolist(), work.vectors):
        if vector is not None:
            scored += 1
            assert vector == oracle.vector(
                work.records[left], work.records[right]
            )
    assert scored >= sum(v is not None for v in fresh_work_done.vectors)
    # The value pairs the latest refit and resolve scored: a subset of
    # what fresh work scores, with equal entries.
    for measure, table in carried._tables.items():
        assert set(table) <= set(fresh._tables[measure])
        assert all(table[key] == fresh._tables[measure][key] for key in table)
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


# -- carried resolve work on hand-built tables ------------------------------

SCHEMA = Schema((Attribute("name"), Attribute("brand")))
RULE = ThresholdRule(0.8)


def comparator(brand_weight=0.5, brand_measure="jaro"):
    return RecordComparator((
        FieldComparator("name", "tokens_strict", 3.0),
        FieldComparator("brand", brand_measure, brand_weight),
    ))


def record(name, brand):
    return Record.of({"name": name, "brand": brand}, source="hand")


def table(records):
    return Table("hand", SCHEMA, list(records))


def base_records():
    """Near-duplicate pairs, all sharing the token ``zeta`` (a block of
    :data:`MAX_BLOCK_SIZE` members) but for two."""
    records = []
    for index in range(MAX_BLOCK_SIZE // 2):
        brand = ("Acme", "Globex", "Initech")[index % 3]
        records.append(record(f"zeta unit{index}", brand))
        records.append(record(f"zeta unit{index}", brand.lower()))
    records.append(record("alpha gadget 1", "Acme"))
    records.append(record("alpha gadget 1", "Acme"))
    return records


def resolved(records, previous=None, compare=None):
    """``(result, per-resolve counters)`` of one resolve of ``records``."""
    metrics = MetricsRegistry()
    result = EntityResolver(
        comparator=compare or comparator(), rule=RULE,
        blocking_attributes=("name",), small_table_cutoff=2,
        metrics=metrics,
    ).resolve(table(records), previous=previous)
    return result, counts(
        metrics,
        RESOLVE_COUNTERS + (
            "resolution.pairs_scored", "resolution.pairs_carried",
        ),
    )


def result_of(result):
    return (
        [(c.cluster_id, [r.rid for r in c.records]) for c in result.clusters],
        result.matched_pairs, result.compared, result.candidate_pairs,
    )


def assert_resolves_as_fresh(records, previous, compare=None):
    """The resolve of ``records`` on ``previous`` against a fresh one:
    equal answers and counters.  Returns the carried resolve's counters."""
    carried, carried_counts = resolved(records, previous, compare)
    fresh, fresh_counts = resolved(records, None, compare)
    assert result_of(carried) == result_of(fresh)
    for name in RESOLVE_COUNTERS:
        assert carried_counts[name] == fresh_counts[name], name
    assert np.array_equal(carried._work.bounds, fresh._work.bounds)
    assert carried_counts["resolution.pairs_scored"] + carried_counts[
        "resolution.pairs_carried"
    ] == carried.candidate_pairs
    return carried, carried_counts


def test_a_block_crossing_the_cap_upwards_drops_its_pairs_as_fresh_work_does():
    records = base_records()
    first, first_counts = resolved(records)
    assert first_counts["blocking.dropped_blocks"] == 0
    grown = records + [record("zeta unit0", "Acme")]
    after, grown_counts = assert_resolves_as_fresh(grown, first)
    assert grown_counts["blocking.dropped_members"] == MAX_BLOCK_SIZE + 1
    assert after.candidate_pairs < first.candidate_pairs
    # Every surviving candidate pair of the old records was carried.
    assert grown_counts["resolution.pairs_scored"] == sum(
        len(grown) - 1 in pair for pair in after._work.pairs.tolist()
    )


def test_a_block_falling_back_under_the_cap_scores_the_pairs_it_admits():
    records = base_records() + [record("zeta unit0", "Acme")]
    first, first_counts = resolved(records)
    assert first_counts["blocking.dropped_blocks"] == 1
    shrunk = records[1:]
    after, shrunk_counts = assert_resolves_as_fresh(shrunk, first)
    assert shrunk_counts["blocking.dropped_blocks"] == 0
    admitted = {
        (id(shrunk[left]), id(shrunk[right]))
        for left, right in after._work.pairs.tolist()
    } - {
        (id(records[left]), id(records[right]))
        for left, right in first._work.pairs.tolist()
    }
    # The block of MAX_BLOCK_SIZE members admits every pair in it.
    assert len(admitted) > MAX_BLOCK_SIZE
    assert shrunk_counts["resolution.pairs_scored"] == len(admitted)
    assert shrunk_counts["resolution.pairs_carried"] == (
        after.candidate_pairs - len(admitted)
    )


def test_a_pair_whose_records_swap_order_is_scored_again():
    records = base_records()
    first, __ = resolved(records)
    swapped = records[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    after, swapped_counts = assert_resolves_as_fresh(swapped, first)
    # Pair (0, 1) now holds the two records in the other order: the one
    # pair whose work is not carried.
    assert swapped_counts["resolution.pairs_scored"] == 1
    position = after._work.pairs.tolist().index([0, 1])
    assert after._work.vectors[position] == ScoringContext(comparator()).vector(
        swapped[0], swapped[1]
    )


def test_moved_weights_re_pool_carried_work_and_a_moved_measure_drops_it():
    records = base_records()
    first, __ = resolved(records)
    __, heavier = assert_resolves_as_fresh(
        records, first, comparator(brand_weight=2.4)
    )
    assert heavier["resolution.pairs_scored"] == 0
    __, remeasured = assert_resolves_as_fresh(
        records, first, comparator(brand_measure="exact")
    )
    assert remeasured["resolution.pairs_carried"] == 0


@pytest.mark.parametrize("n_products", [300, 1200])
def test_a_refresh_tick_scores_only_the_pairs_its_appended_rows_touch(
    tmp_path, n_products, monkeypatch
):
    """ROADMAP item 2's "flat as the base grows", by count: on a five-row
    refresh tick the pairs given kernel bounds or a field vector from
    scratch are exactly the candidate pairs holding an appended record
    (a refresh only appends, so no block falls back under the cap), at
    300 and at 1,200 products alike; every other pair is carried."""
    script = RefreshScript(tmp_path, n_products=n_products)
    flow, metrics = script.wrangler.flow, script.wrangler.telemetry.metrics
    previous = flow.value("resolve")._work
    before_pairs = {
        (id(previous.records[left]), id(previous.records[right]))
        for left, right in previous.pairs.tolist()
    }
    before_records = {id(r) for r in previous.records}
    scored = []
    real = repro.resolution.er._score_pair

    def spy(scores, left, right):
        scored.append((id(left), id(right)))
        return real(scores, left, right)

    monkeypatch.setattr(repro.resolution.er, "_score_pair", spy)
    names = ("resolution.pairs_scored", "resolution.pairs_carried")
    start = counts(metrics, names)
    script.tick(0)
    ticked = moved(start, counts(metrics, names))

    work = flow.value("resolve")._work
    appended = {id(r) for r in work.records} - before_records
    assert len(appended) == 5
    pairs = {
        (id(work.records[left]), id(work.records[right]))
        for left, right in work.pairs.tolist()
    }
    touched = {pair for pair in pairs if appended & set(pair)}
    assert pairs - before_pairs == touched
    assert ticked == {
        "resolution.pairs_scored": len(touched),
        "resolution.pairs_carried": len(pairs) - len(touched),
    }
    assert set(scored) <= touched
