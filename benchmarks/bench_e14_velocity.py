"""E14 — Velocity economics: scheduled refresh under a budget (§1, §4.3).

Claim: Velocity — "the rate at which sources or their contents may change"
— makes manual re-acquisition untenable; the system must decide *what* to
re-access with the same cost-awareness it applies to source selection.

A fleet of sources with heterogeneous change rates and access costs drifts
for a simulated week.  Three policies spend the same refresh budget:
refresh-nothing, refresh-everything-affordable (naive round-robin until
the budget dies), and the scheduler (staleness x reliability / cost).
Measured: the fraction of the fleet's rows that are up to date afterwards,
per unit spent.  Expected shape: scheduled > naive > none at equal budget.
"""

import json
import random

import pytest

from repro.errors import InjectedCrashError
from repro.ingest.checkpoint import CheckpointStore, CrashPlan
from repro.ingest.incremental import acquire_durable, merge_delta
from repro.selection.refresh import expected_staleness, plan_refresh
from repro.sources.cursor import DELTA_COST_FLOOR
from repro.sources.memory import MemorySource
from repro.sources.registry import SourceRegistry

from helpers import (
    RESULTS_DIR,
    bench_telemetry,
    emit,
    emit_telemetry,
    format_table,
    timed,
)


def build_fleet(seed: int):
    rng = random.Random(seed)
    registry = SourceRegistry()
    change_rates = {}
    costs = {}
    for index in range(12):
        if index < 4:   # tickers: change constantly, cheap
            rate, cost = rng.uniform(1.0, 3.0), rng.uniform(0.3, 0.8)
        elif index < 8:  # weeklies
            rate, cost = rng.uniform(0.1, 0.3), rng.uniform(0.5, 1.5)
        else:            # archives: almost static, expensive
            rate, cost = rng.uniform(0.001, 0.01), rng.uniform(2.0, 5.0)
        name = f"src-{index:02d}"
        registry.register(
            MemorySource(name, [{"x": 1}], cost_per_access=cost,
                         change_rate=rate)
        )
        change_rates[name] = rate
        costs[name] = cost
    return registry, change_rates, costs


def freshness_after(registry, change_rates, refreshed: set[str], days: float):
    """Expected fraction of sources whose snapshot is current."""
    fresh = 0.0
    names = registry.names()
    for name in names:
        age = 0.0 if name in refreshed else days
        fresh += 1.0 - expected_staleness(change_rates[name], age)
    return fresh / len(names)


def naive_policy(registry, costs, budget: float, seed: int = 3) -> set[str]:
    """Cost- and staleness-blind: refresh sources in arbitrary order."""
    rng = random.Random(seed)
    order = registry.names()
    rng.shuffle(order)
    chosen = set()
    remaining = budget
    for name in order:
        if costs[name] <= remaining:
            chosen.add(name)
            remaining -= costs[name]
    return chosen


def test_e14_refresh_scheduling(benchmark):
    days = 7.0
    rows = []
    outcomes = {}
    telemetry = bench_telemetry()
    for budget in (1.0, 2.0, 4.0):
        registry, change_rates, costs = build_fleet(seed=14)
        ages = {name: days for name in registry.names()}
        scheduled, __ = timed(
            telemetry,
            "refresh.plan",
            lambda r=registry, a=ages, b=budget: {
                c.name for c in plan_refresh(r, a, budget=b)
            },
            budget=budget,
        )
        none_fresh = freshness_after(registry, change_rates, set(), days)
        # naive is order-dependent: average over arbitrary orders
        naive_fresh = sum(
            freshness_after(
                registry, change_rates,
                naive_policy(registry, costs, budget, seed=s), days,
            )
            for s in range(10)
        ) / 10
        sched_fresh = freshness_after(registry, change_rates, scheduled, days)
        outcomes[budget] = (none_fresh, naive_fresh, sched_fresh)
        rows.append(
            [f"{budget:.1f}", f"{none_fresh:.3f}", f"{naive_fresh:.3f}",
             f"{sched_fresh:.3f}", len(scheduled)]
        )
    registry, __, __ = build_fleet(seed=14)
    benchmark.pedantic(
        lambda: plan_refresh(
            registry, {n: days for n in registry.names()}, budget=4.0
        ),
        rounds=5, iterations=1,
    )
    emit(
        "E14-velocity",
        format_table(
            ["refresh budget", "no refresh", "naive policy",
             "scheduled policy", "sources refreshed"],
            rows,
        ),
    )
    emit_telemetry("E14-velocity", telemetry.snapshot())
    for budget, (none_fresh, naive_fresh, sched_fresh) in outcomes.items():
        assert sched_fresh >= naive_fresh - 1e-9
        assert sched_fresh > none_fresh
    # with a real budget to allocate, scheduling beats blind refreshing
    # decisively (cost-blind policies waste spend on static archives)
    comfortable = outcomes[4.0]
    assert comfortable[2] - comfortable[1] > 0.05


# --- BENCH_e14_incremental: the velocity claim, executed -----------------
#
# Scheduling decides *when* to re-access; cursors decide *how much*.  A
# ticking feed appends APPEND rows per tick; the full-refetch policy pays
# a whole access per tick, the delta policy pays only the appended
# fraction (access-ledger-asserted), and a run killed mid-acquisition
# resumes from its checkpoint paying only for the source whose commit
# never landed.

TICKS = 4
BASE = 1200
APPEND = 30
REPEATS = 2


def feed_rows(count: int) -> list[dict]:
    return [
        {
            "product": f"item-{index:05d}",
            "price": round(((index * 7) % 997) / 10.0, 2),
            "seq": index,
        }
        for index in range(count)
    ]


def run_full_refetch() -> MemorySource:
    source = MemorySource("feed", feed_rows(BASE))
    source.fetch()
    for tick in range(1, TICKS + 1):
        source.replace_rows(feed_rows(BASE + tick * APPEND))
        source.fetch()
    return source


def run_delta_fetch() -> MemorySource:
    source = MemorySource("feed", feed_rows(BASE), cursor="seq")
    batch = source.fetch_delta(None)
    rows = [dict(row) for row in batch.rows]
    mark = batch.watermark
    for tick in range(1, TICKS + 1):
        total = BASE + tick * APPEND
        source.replace_rows(feed_rows(total))
        batch = source.fetch_delta(mark)
        assert batch.mode == "delta", batch.mode
        assert len(batch.rows) == APPEND
        assert batch.fraction == pytest.approx(
            max(DELTA_COST_FLOOR, APPEND / total)
        )
        rows = merge_delta(rows, batch)
        assert rows is not None and len(rows) == total
        mark = batch.watermark
    return source


def crashed_store(root, names) -> None:
    """A durable acquisition killed right after the second commit."""
    store = CheckpointStore(
        root, crash_plan=CrashPlan.at(f"acquire:{names[1]}")
    )
    log = store.begin_run("bench-e14")
    try:
        for name in names:
            acquire_durable(
                MemorySource(name, feed_rows(600), cursor="seq"), log
            )
        raise AssertionError("crash plan never fired")
    except InjectedCrashError:
        pass


def resume_acquisition(root, names, telemetry=None) -> dict[str, float]:
    """Resume the killed run; returns per-source ledger accesses."""
    store = CheckpointStore(root, telemetry=telemetry)
    log = store.begin_run("bench-e14")
    assert log.resumed
    sources = {
        name: MemorySource(name, feed_rows(600), cursor="seq")
        for name in names
    }
    for name, source in sources.items():
        if log.restored(f"acquire:{name}") is None:
            acquire_durable(source, log, telemetry)
    log.complete()
    return {name: source.accesses for name, source in sources.items()}


def test_e14_incremental_ingestion(benchmark, tmp_path):
    telemetry = bench_telemetry()
    names = [f"feed-{index}" for index in range(3)]

    full_seconds, delta_seconds = [], []
    for repeat in range(REPEATS):
        full_source, seconds = timed(
            telemetry, "ingest.full_refetch", run_full_refetch, repeat=repeat
        )
        full_seconds.append(seconds)
        delta_source, seconds = timed(
            telemetry, "ingest.delta_fetch", run_delta_fetch, repeat=repeat
        )
        delta_seconds.append(seconds)

    # The ledger is the claim: full refetch pays one whole access per
    # tick; the delta path pays the appended fraction plus the initial
    # full fetch — nothing else.
    full_accesses = full_source.accesses
    delta_accesses = delta_source.accesses
    assert full_accesses == pytest.approx(TICKS + 1)
    assert delta_accesses == pytest.approx(
        1.0
        + sum(
            max(DELTA_COST_FLOOR, APPEND / (BASE + tick * APPEND))
            for tick in range(1, TICKS + 1)
        )
    )
    assert delta_accesses < 0.25 * full_accesses

    resume_seconds = []
    for repeat in range(REPEATS):
        root = tmp_path / f"resume-{repeat}"
        crashed_store(root, names)
        ledgers, seconds = timed(
            telemetry,
            "ingest.resume_after_crash",
            lambda r=root: resume_acquisition(r, names, telemetry),
            repeat=repeat,
        )
        resume_seconds.append(seconds)
        # Two of three acquisitions were committed before the death; the
        # resume restores them and charges only the third.
        assert ledgers[names[0]] == 0.0
        assert ledgers[names[1]] == 0.0
        assert ledgers[names[2]] == pytest.approx(1.0)

    # A resumed probe of an unchanged feed is the steady-state hot path.
    steady = MemorySource("steady", feed_rows(BASE), cursor="seq")
    steady_mark = steady.fetch_delta(None).watermark
    benchmark.pedantic(
        lambda: steady.fetch_delta(steady_mark), rounds=5, iterations=1
    )

    timings = {
        "full_refetch": round(min(full_seconds), 4),
        "delta_fetch": round(min(delta_seconds), 4),
        "resume_after_crash": round(min(resume_seconds), 4),
    }
    costs = {
        "full_refetch_accesses": round(full_accesses, 4),
        "delta_fetch_accesses": round(delta_accesses, 4),
        "resume_extra_accesses": 1.0,
    }
    record = {
        "experiment": "BENCH_e14_incremental",
        "workload": {
            "base_rows": BASE,
            "appended_per_tick": APPEND,
            "ticks": TICKS,
            "cursor": "seq",
            "resume_fleet": len(names),
            "repeats": REPEATS,
        },
        "timings_seconds": timings,
        "costs": costs,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_e14_incremental.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    emit(
        "BENCH_e14_incremental",
        format_table(
            ["policy", "seconds", "ledger accesses"],
            [
                ["full refetch", timings["full_refetch"],
                 costs["full_refetch_accesses"]],
                ["delta fetch", timings["delta_fetch"],
                 costs["delta_fetch_accesses"]],
                ["resume after crash", timings["resume_after_crash"],
                 costs["resume_extra_accesses"]],
            ],
        ),
    )
    emit_telemetry("BENCH_e14_incremental", telemetry.snapshot())
