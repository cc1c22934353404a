"""E10 — Cost-based constraint repair (Section 4.3, Bohannon et al. [7]).

Claim: "many quality analyses are intractable" — minimum-cost repair is
NP-hard, so practical wrangling needs an "effective heuristic for
repairing constraints by value modification".

We corrupt a postcode->city table at rising violation rates and measure:
does the heuristic always restore consistency, how close is its cost to
the known optimal (corruptions are injected, so the oracle cost is the
number of corrupted low-confidence cells), and how many corrupted cells
does it actually fix back to the truth?  Expected shape: 100% consistency,
cost within a small factor of optimal, restoration well above the
violation rate.  The table holds deterministic counts and costs only;
each repair's wall-clock goes to stdout and to the telemetry file (the
``repair`` spans and the ``repair.seconds`` histogram).
"""

import random

from repro.model.records import Record, Table
from repro.model.schema import Schema
from repro.model.values import Value
from repro.quality.constraints import FunctionalDependency, violations
from repro.quality.repair import repair_table

from helpers import bench_telemetry, emit, emit_telemetry, format_table, timed

CITIES = {
    "OX": "Oxford", "EH": "Edinburgh", "B": "Birmingham",
    "M": "Manchester", "SW": "London",
}


def corrupted_table(n_rows: int, violation_rate: float, seed: int):
    rng = random.Random(seed)
    schema = Schema.of("postcode", "city")
    table = Table("addresses", schema)
    corrupted = 0
    truth = []
    prefixes = sorted(CITIES)
    for index in range(n_rows):
        prefix = prefixes[index % len(prefixes)]
        postcode = f"{prefix}{index % 20 + 1}"
        city = CITIES[prefix]
        truth.append(city)
        if rng.random() < violation_rate:
            wrong = rng.choice([c for c in CITIES.values() if c != city])
            # corrupted cells arrive with low confidence (they came from a
            # dubious source) — the cost model should prefer changing them
            table.append(Record.of({
                "postcode": postcode,
                "city": Value.of(wrong, confidence=0.3),
            }))
            corrupted += 1
        else:
            table.append(Record.of({
                "postcode": postcode,
                "city": Value.of(city, confidence=0.9),
            }))
    return table, truth, corrupted


def test_e10_repair_quality(benchmark):
    telemetry = bench_telemetry()
    fd = FunctionalDependency(("postcode",), "city")
    rows = []
    for rate in (0.05, 0.15, 0.3):
        table, truth, corrupted = corrupted_table(300, rate, seed=int(rate * 100))
        result, elapsed = timed(
            telemetry, "repair", lambda: repair_table(table, [fd]),
            violation_rate=rate,
        )
        assert violations(result.table, [fd]) == []
        oracle_cost = corrupted * 0.3  # change exactly the corrupted cells
        restored = sum(
            1
            for record, expected in zip(result.table.records, truth)
            if record.raw("city") == expected
        )
        rows.append(
            [f"{rate:.2f}", corrupted, len(result.repairs),
             f"{result.total_cost:.1f}", f"{oracle_cost:.1f}",
             f"{restored / len(truth):.3f}"]
        )
        print(f"E10 violation rate {rate:.2f}: {elapsed * 1000:.0f} ms")
        # cost within 2x of the oracle, and most of the truth restored
        if corrupted:
            assert result.total_cost <= 2.0 * oracle_cost + 1.0
        assert restored / len(truth) > 1.0 - rate
    table, __, __ = corrupted_table(300, 0.15, seed=15)
    benchmark.pedantic(
        lambda: repair_table(
            Table(table.name, table.schema, list(table.records)), [fd]
        ),
        rounds=3, iterations=1,
    )
    emit(
        "E10-repair",
        format_table(
            ["violation rate", "corrupted cells", "cells repaired",
             "repair cost", "oracle cost", "truth restored"],
            rows,
        ),
    )
    emit_telemetry("E10-repair", telemetry.snapshot())
