"""BENCH — the ER scale curve: vectorised kernels + MinHash-LSH blocking.

The quadratic wall this repo reproduces (ROADMAP item 2: 2.85s @ 200
rows → 43.5s @ 800 on the scalar compare loop) measured against the two
fixes, on the E7a offers workload at 200/400/800/1600 rows:

* **vectorised vs scalar** — the same full-pairs resolve with the
  compiled prune kernels on vs off.  Outputs are asserted byte-identical
  (cluster ids, matched pairs, confidences); only the wall-clock moves.
* **blocked vs full pairs** — MinHash-LSH candidate generation vs the
  quadratic candidate set, with blocking recall asserted at 1.0 against
  the known duplicate pairs (exact-duplicate names share token sets, so
  every true pair collides in every band).

The scalar leg stops at 800 rows (≈20s; 1600 would roughly quadruple
that for no extra information — the curve's shape is already pinned).
Timings at 800/1600 are committed as ratchet baselines
(``BENCH_er_scale.json``) and enforced by ``make bench-gate``: losing
the kernel path or the blocking is a 10–250x blow-up the 50% gate
tolerance catches from orbit.  The sub-100ms small-size timings ride
along un-ratcheted (``scale_curve``) — at that scale relative noise on
a shared runner outruns any honest tolerance.
"""

import json
import os

import numpy as np

from repro.model.records import Table
from repro.resolution.blocking import minhash_lsh, recall_of
from repro.resolution.comparison import profiled_comparator
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule

from bench_e7_scale import offers_table
from helpers import (
    RESULTS_DIR,
    bench_telemetry,
    best_of,
    emit,
    emit_telemetry,
    format_table,
    timed,
)

SIZES = (200, 400, 800, 1600)
#: Largest size the scalar loop is actually run at.
SCALAR_LIMIT = 800
#: Sizes whose timings are committed as ratchet baselines.
RATCHETED_SIZES = (800, 1600)
THRESHOLD = 0.95
#: Repetitions for the vectorised legs (ratcheted timing = best-of);
#: the scalar leg runs once — at 20s a rep, the minimum of three buys
#: noise immunity nobody needs at that magnitude.
TIMING_REPS = 3


def make_resolver(
    table: Table, use_kernels: bool, blocked: bool, metrics=None
) -> EntityResolver:
    comparator = profiled_comparator(table.schema, table, attributes=["name"])
    return EntityResolver(
        comparator=comparator,
        rule=ThresholdRule(THRESHOLD),
        small_table_cutoff=10**9,
        blocker=(lambda t: minhash_lsh(t, ["name"])) if blocked else None,
        use_kernels=use_kernels,
        metrics=metrics,
    )


def fingerprint(result) -> str:
    """The full resolution output as one canonical byte string.

    Cluster ids, matched pairs, exact confidence floats, and the pair
    count — if the vectorised path perturbed any decision anywhere,
    these strings diverge.
    """
    return json.dumps(
        {
            "clusters": [c.cluster_id for c in result.clusters],
            "matched": {
                f"{left}|{right}": confidence
                for (left, right), confidence in sorted(
                    result.matched_pairs.items()
                )
            },
            "compared": result.compared,
        },
        sort_keys=True,
    )


def true_pairs(table: Table):
    """The known duplicate index pairs: the generator emits each entity
    twice, back to back."""
    return [(i, i + 1) for i in range(0, len(table), 2)]


def test_bench_er_scale():
    telemetry = bench_telemetry()
    timings: dict[str, float] = {}
    curve: dict[str, dict[str, float]] = {}
    speedups: dict[str, float] = {}
    outputs_identical = True

    for n_rows in SIZES:
        table = offers_table(n_rows, seed=n_rows)
        point: dict[str, float] = {}

        vectorised, vec_time = best_of(
            telemetry,
            "bench.vectorised_full",
            lambda: make_resolver(
                table, use_kernels=True, blocked=False,
                metrics=telemetry.metrics,
            ).resolve(table),
            TIMING_REPS,
            rows=n_rows,
        )
        point["vectorised_full"] = vec_time
        point["pairs_full"] = float(vectorised.compared)

        blocked, blocked_time = best_of(
            telemetry,
            "bench.vectorised_minhash",
            lambda: make_resolver(
                table, use_kernels=True, blocked=True,
                metrics=telemetry.metrics,
            ).resolve(table),
            TIMING_REPS,
            rows=n_rows,
        )
        point["vectorised_minhash"] = blocked_time
        point["pairs_minhash"] = float(blocked.compared)

        # Blocking keeps every true duplicate pair and the resolver
        # reaches the same clusters off ~1/60th the candidates.
        candidates = minhash_lsh(table, ["name"])
        assert recall_of(candidates, true_pairs(table)) == 1.0
        assert np.array_equal(candidates, minhash_lsh(table, ["name"]))
        assert [c.cluster_id for c in blocked.clusters] == [
            c.cluster_id for c in vectorised.clusters
        ]

        if n_rows <= SCALAR_LIMIT:
            scalar, scalar_time = timed(
                telemetry,
                "bench.scalar_full",
                lambda: make_resolver(
                    table, use_kernels=False, blocked=False
                ).resolve(table),
                rows=n_rows,
            )
            point["scalar_full"] = scalar_time
            speedups[f"vectorised_full_{n_rows}"] = (
                scalar_time / vec_time if vec_time else 0.0
            )
            # The acceptance contract: decisions are bit-identical —
            # the kernels only prune pairs provably below threshold.
            identical = fingerprint(scalar) == fingerprint(vectorised)
            outputs_identical = outputs_identical and identical
            assert identical, f"vectorised output diverged at {n_rows} rows"

        curve[str(n_rows)] = point
        if n_rows in RATCHETED_SIZES:
            for leg in ("vectorised_full", "vectorised_minhash",
                        "scalar_full"):
                if leg in point:
                    timings[f"{leg}_{n_rows}"] = point[leg]

    # Scalar-vs-vectorised parity across extra seeds: same workload
    # shape, different random names/prices — the determinism suite's
    # spot check at benchmark scale.
    for seed in (7, 1234, 987654):
        table = offers_table(200, seed=seed)
        scalar = make_resolver(
            table, use_kernels=False, blocked=False
        ).resolve(table)
        vectorised = make_resolver(
            table, use_kernels=True, blocked=False
        ).resolve(table)
        assert fingerprint(scalar) == fingerprint(vectorised), (
            f"vectorised output diverged at seed {seed}"
        )

    assert speedups["vectorised_full_800"] >= 5.0, (
        f"expected >=5x at 800 rows, got "
        f"{speedups['vectorised_full_800']:.2f}x"
    )

    record = {
        "experiment": "BENCH_er_scale",
        "workload": {
            "generator": "bench_e7_scale.offers_table",
            "comparator": "profiled:name",
            "threshold": THRESHOLD,
            "blocking": "minhash_lsh(name) vs full pairs",
            "sizes": list(SIZES),
            "scalar_limit": SCALAR_LIMIT,
        },
        "cpu_count": os.cpu_count() or 1,
        "timings_seconds": {
            name: round(value, 4) for name, value in timings.items()
        },
        "scale_curve": {
            size: {name: round(value, 4) for name, value in point.items()}
            for size, point in curve.items()
        },
        "speedups": {
            name: round(value, 2) for name, value in speedups.items()
        },
        "outputs_identical": outputs_identical,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_er_scale.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    emit_telemetry("BENCH_er_scale", telemetry.snapshot())
    rows = [
        [
            size,
            f"{point.get('scalar_full', float('nan')):.2f}",
            f"{point['vectorised_full']:.3f}",
            f"{point['vectorised_minhash']:.3f}",
            f"{point['pairs_full']:.0f}",
            f"{point['pairs_minhash']:.0f}",
        ]
        for size, point in curve.items()
    ]
    emit(
        "BENCH_er_scale",
        format_table(
            ["rows", "scalar", "vectorised", "minhash", "pairs",
             "mh pairs"],
            rows,
        )
        + f"\nspeedup@800={speedups['vectorised_full_800']:.0f}x "
        f"outputs_identical={outputs_identical}",
    )
