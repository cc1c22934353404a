"""BENCH — the load path: what typing a cell costs, and how often it runs.

Type inference sits under every layer (``Table.from_rows``, the schema
re-vote, the profiler, the matcher), so it is measured two ways:

* **µs per cell, by cell class** — ``infer_type`` straight over dates,
  non-date strings (product titles, one typo each), currency amounts
  and URLs as ``datagen.corrupt`` renders them.  A non-date string used
  to be the expensive class (seven ``strptime`` formats raised through
  before any cheaper grammar ran); with the shape-dispatched date
  grammar it costs a regex miss, and a date costs one parse.
* **``infer_type`` calls per loaded cell** — a generated source through
  ``Table.from_rows(...).infer_schema()``, the two passes a cold
  acquisition makes.  Each pass types each distinct string of a column
  once, so the ratio is machine-independent and is ratcheted as a cost.

Batch sizes are chosen so every ratcheted timing is a few tenths of a
second (best of ``TIMING_REPS``): below that, relative noise on a shared
runner outruns the gate's tolerance.
"""

import datetime
import json
import random

import repro.model.schema as schema_module
from repro.datagen.corrupt import format_date, format_price, misspell
from repro.model.records import Table
from repro.model.schema import DataType, infer_type

from helpers import (
    RESULTS_DIR,
    bench_telemetry,
    best_of,
    emit,
    emit_telemetry,
    format_table,
    standard_world,
)

SEED = 2016
TIMING_REPS = 5
#: Cells per class: dates cost a parse each, the rest a few regexes.
BATCH = {"date": 50_000, "string": 200_000, "currency": 200_000, "url": 500_000}
EXPECTED = {
    "date": DataType.DATE,
    "string": DataType.STRING,
    "currency": DataType.CURRENCY,
    "url": DataType.URL,
}
LOAD_PRODUCTS = 8000


def cell_batches(world) -> dict[str, list[str]]:
    """One list of raw cells per class, rendered as the generator does."""
    rng = random.Random(SEED)
    start = datetime.date(2010, 1, 1)
    titles = [str(title) for title in world.ground_truth.raw_column("product")]
    return {
        "date": [
            format_date(start + datetime.timedelta(days=rng.randrange(3000)), rng)
            for __ in range(BATCH["date"])
        ],
        "string": [
            misspell(rng.choice(titles), rng) for __ in range(BATCH["string"])
        ],
        "currency": [
            format_price(round(rng.uniform(1.0, 5000.0), 2), rng)
            for __ in range(BATCH["currency"])
        ],
        "url": [
            f"https://shop.example/p/{rng.randrange(10**6)}"
            for __ in range(BATCH["url"])
        ],
    }


def count_infer_type_calls(thunk) -> int:
    """How many times ``thunk`` reaches ``infer_type`` (untimed leg)."""
    calls = 0
    real = schema_module.infer_type

    def counting(value):
        nonlocal calls
        calls += 1
        return real(value)

    schema_module.infer_type = counting
    try:
        thunk()
    finally:
        schema_module.infer_type = real
    return calls


def test_bench_type_inference():
    telemetry = bench_telemetry()
    world = standard_world(n_products=LOAD_PRODUCTS, n_sources=2)
    timings: dict[str, float] = {}
    us_per_cell: dict[str, float] = {}

    for kind, cells in cell_batches(world).items():
        dtypes, seconds = best_of(
            telemetry,
            f"bench.infer_type.{kind}",
            lambda cells=cells: [infer_type(cell) for cell in cells],
            TIMING_REPS,
            cells=len(cells),
        )
        # The batch is what it says it is (typos can turn a title into
        # nothing else; a price or a date never stops being one).
        assert dtypes.count(EXPECTED[kind]) >= 0.99 * len(cells), kind
        timings[f"{kind}_cells"] = seconds
        us_per_cell[kind] = 1e6 * seconds / len(cells)

    name, rows = max(world.source_rows.items(), key=lambda item: len(item[1]))

    def load():
        return Table.from_rows(name, rows).infer_schema()

    table, seconds = best_of(
        telemetry, "bench.load", load, TIMING_REPS, rows=len(rows)
    )
    loaded_cells = sum(value is not None for row in rows for value in row.values())
    calls = count_infer_type_calls(load)
    calls_per_cell = calls / loaded_cells
    timings["load_rows"] = seconds
    # Two passes (load, re-vote), each at most once per distinct value:
    # typing every cell in both would read 2.0, the old path 3.0.
    assert calls_per_cell < 2.0
    assert len(table) == len(rows)

    record = {
        "experiment": "BENCH_type_inference",
        "workload": {
            "generator": "datagen.corrupt + helpers.standard_world",
            "seed": SEED,
            "cells": BATCH,
            "load_rows": len(rows),
            "load_cells": loaded_cells,
            "timing_reps": TIMING_REPS,
        },
        "timings_seconds": {k: round(v, 4) for k, v in timings.items()},
        "costs": {"infer_type_calls_per_loaded_cell": round(calls_per_cell, 4)},
        "us_per_cell": {k: round(v, 3) for k, v in us_per_cell.items()},
        "load_us_per_cell": round(1e6 * seconds / loaded_cells, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_type_inference.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    emit_telemetry("BENCH_type_inference", telemetry.snapshot())
    emit(
        "BENCH_type_inference",
        format_table(
            ["cell class", "cells", "seconds", "us per cell"],
            [
                [kind, BATCH[kind], f"{timings[f'{kind}_cells']:.4f}",
                 f"{us_per_cell[kind]:.2f}"]
                for kind in BATCH
            ],
        )
        + f"\nload: {len(rows)} rows, {loaded_cells} cells in {seconds:.4f}s "
        f"({record['load_us_per_cell']:.2f} us per cell), "
        f"{calls_per_cell:.3f} infer_type calls per loaded cell",
    )
