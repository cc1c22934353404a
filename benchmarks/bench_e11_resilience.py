"""E11-resilience — Graceful degradation under injected source faults.

Claim (Section 2.3 / Veracity): with "potentially thousands of sources",
some are down, slow, or corrupt at any moment; wrangling must complete
and account rather than crash.  We run the full pipeline over registries
whose sources misbehave at rising fault rates — seeded `ChaosSource`
plans, every access going through the wrangler's `AccessGuard` — and
measure end-to-end success, which sources degrade, how many retries the
run spends, and the (manual-)clock time burned in backoff.  Expected shape: every run
completes; survival falls only as sources become permanently dead, not
merely flaky; retry spend grows with the fault rate; all of it byte-
identical across repeated runs because every fault and every backoff is
seeded and clock-driven.
"""

import json

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA
from repro.obs import Telemetry
from repro.resilience import ChaosSource, FaultPlan, RetryPolicy
from repro.sources.memory import MemorySource

from helpers import TODAY, emit, emit_telemetry, format_table, standard_world

#: Fault scenarios: (label, per-source plans keyed by source index).
SCENARIOS = [
    ("calm", {}),
    ("flaky-20", {0: FaultPlan(fail_first=1), 1: FaultPlan(failure_rate=0.2)}),
    (
        "stormy",
        {
            0: FaultPlan(fail_first=2),
            1: FaultPlan(failure_rate=0.4, latency=0.2),
            2: FaultPlan(failure_rate=0.4),
        },
    ),
    (
        "outage",
        {
            0: FaultPlan(dead=True),
            1: FaultPlan(dead=True),
            2: FaultPlan(fail_first=2),
            3: FaultPlan(failure_rate=0.3),
        },
    ),
]


def chaotic_wrangler(world, plans):
    user = UserContext.precision_first("bench", TARGET_SCHEMA, budget=60.0)
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
    for index, name in enumerate(sorted(world.source_rows)):
        spec = world.specs[name]
        inner = MemorySource(
            name, world.source_rows[name], cost_per_access=spec.cost,
            change_rate=spec.staleness,
        )
        plan = plans.get(index, FaultPlan())
        wrangler.add_source(ChaosSource(inner, plan, clock=telemetry.clock))
    wrangler.resilience(RetryPolicy(max_attempts=3))
    return wrangler


def run_scenario(world, plans):
    wrangler = chaotic_wrangler(world, plans)
    result = wrangler.run()
    counters = result.telemetry["metrics"]["counters"]
    return {
        "rows": len(result.table),
        "degraded": result.degraded_sources(),
        "attempts": counters.get("resilience.attempts", 0.0),
        "retries": counters.get("resilience.retries", 0.0),
        "backoff_clock": wrangler.telemetry.clock.current_time(),
        "degradation": result.degradation,
    }


def test_e11_resilience(benchmark):
    telemetry = Telemetry.manual()
    world = standard_world(n_products=40, n_sources=6, seed=2016)
    rows = []
    outcomes = {}
    for label, plans in SCENARIOS:
        with telemetry.tracer.span("scenario", label=label) as span:
            outcome = run_scenario(world, plans)
        telemetry.metrics.histogram("scenario.seconds").observe(span.duration)
        telemetry.metrics.counter("scenario.retries").increment(
            outcome["retries"]
        )
        outcomes[label] = outcome
        survived = len(world.source_rows) - len(outcome["degraded"])
        rows.append([
            label,
            outcome["rows"],
            f"{survived}/{len(world.source_rows)}",
            ", ".join(outcome["degraded"]) or "-",
            f"{outcome['attempts']:g}",
            f"{outcome['retries']:g}",
            f"{outcome['backoff_clock']:.2f}",
        ])
        # Every scenario completes with data — degradation, not collapse.
        assert outcome["rows"] > 0

    # Flakiness costs retries but no sources; only death loses sources.
    assert outcomes["calm"]["degraded"] == []
    assert outcomes["calm"]["retries"] == 0
    assert outcomes["flaky-20"]["degraded"] == []
    assert outcomes["flaky-20"]["retries"] > 0
    assert outcomes["stormy"]["degraded"] == []
    assert len(outcomes["outage"]["degraded"]) == 2

    # Determinism: the stormy scenario replays byte-identically.
    replay = run_scenario(world, dict(SCENARIOS[2][1]))
    assert json.dumps(replay["degradation"], sort_keys=True) == json.dumps(
        outcomes["stormy"]["degradation"], sort_keys=True
    )
    assert replay["backoff_clock"] == outcomes["stormy"]["backoff_clock"]

    benchmark.pedantic(
        lambda: run_scenario(world, dict(SCENARIOS[1][1])),
        rounds=3, iterations=1,
    )
    emit(
        "E11-resilience",
        format_table(
            ["scenario", "rows", "survived", "degraded sources",
             "attempts", "retries", "backoff clock-s"],
            rows,
        ),
    )
    emit_telemetry("E11-resilience", telemetry.snapshot())
