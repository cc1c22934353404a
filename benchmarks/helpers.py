"""Shared infrastructure for the experiment benchmarks.

Every benchmark prints its experiment table through :func:`emit`, which
also persists it under ``benchmarks/results/`` so EXPERIMENTS.md can quote
measured numbers verbatim.  Timings go through the observability layer
(:func:`timed` wraps work in a tracer span; :func:`emit_telemetry`
persists the schema-checked ``repro.obs`` snapshot), so every benchmark
reports in the same format as ``Wrangler.run`` itself.
"""

from __future__ import annotations

import datetime
import json
import re
from pathlib import Path
from typing import Callable, TypeVar

from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.datagen.ontologies import product_ontology
from repro.datagen.products import TARGET_SCHEMA, ProductWorld, generate_world
from repro.obs import Telemetry, validate_telemetry
from repro.sources.memory import MemorySource

TODAY = datetime.date(2016, 3, 15)
RESULTS_DIR = Path(__file__).parent / "results"

T = TypeVar("T")


#: Benchmark-suite artifact names must be ``BENCH_<snake_case>`` so the
#: perf ratchet (``tools/ratchet.py``) can pair
#: fresh ``BENCH_*.json`` records with committed baselines by glob.
_BENCH_NAME_RE = re.compile(r"BENCH_[a-z0-9_]+")


def check_experiment_name(experiment: str) -> str:
    """Enforce the result-naming convention; returns the name unchanged.

    Experiment names are free-form (``E6-incremental`` etc.) *except*
    for the ratcheted benchmark records: anything claiming the ``BENCH``
    prefix must match ``BENCH_<snake_case>`` exactly, or the ratchet's
    baseline glob would silently miss it.
    """
    if experiment.upper().startswith("BENCH") and not _BENCH_NAME_RE.fullmatch(
        experiment
    ):
        raise ValueError(
            f"benchmark artifact name {experiment!r} violates the "
            "BENCH_<snake_case> convention (e.g. 'BENCH_er_scale')"
        )
    return experiment


def emit(experiment: str, text: str) -> None:
    """Print an experiment table and persist it for EXPERIMENTS.md."""
    check_experiment_name(experiment)
    banner = f"\n=== {experiment} ===\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(banner, encoding="utf-8")


def bench_telemetry() -> Telemetry:
    """A fresh clock/metrics/tracer bundle for one benchmark's measurements."""
    return Telemetry()


def timed(
    telemetry: Telemetry, label: str, work: Callable[[], T], **attributes
) -> tuple[T, float]:
    """Run ``work`` under a tracer span; return ``(value, seconds)``.

    The duration also lands in the ``<label>.seconds`` histogram so the
    emitted telemetry carries p50/p95/max across repeated measurements.
    """
    with telemetry.tracer.span(label, **attributes) as span:
        value = work()
    telemetry.metrics.histogram(f"{label}.seconds").observe(span.duration)
    return value, span.duration


def best_of(
    telemetry: Telemetry, label: str, work: Callable[[], T], reps: int, **attributes
) -> tuple[T, float]:
    """:func:`timed` ``reps`` times; the quickest run's ``(value, seconds)``."""
    result, best = None, None
    for __ in range(reps):
        value, elapsed = timed(telemetry, label, work, **attributes)
        if best is None or elapsed < best:
            result, best = value, elapsed
    return result, best


def emit_telemetry(experiment: str, snapshot: dict) -> Path:
    """Persist a benchmark's telemetry snapshot, schema-checked.

    Raises when the snapshot does not match the ``repro.obs`` telemetry
    schema — a benchmark silently emitting malformed telemetry would
    defeat the point of a shared format — or when the experiment name
    violates the ``BENCH_<snake_case>`` ratchet convention.
    """
    check_experiment_name(experiment)
    problems = validate_telemetry(snapshot)
    if problems:
        raise ValueError(
            f"{experiment} telemetry violates the schema: {problems}"
        )
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{experiment}.telemetry.json"
    path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width table rendering for experiment output."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        " | ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
        "-+-".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append(" | ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def standard_world(
    n_products: int = 60, n_sources: int = 8, seed: int = 2016
) -> ProductWorld:
    """The default price-intelligence world used across benchmarks."""
    return generate_world(n_products=n_products, n_sources=n_sources, seed=seed)


def build_wrangler(
    world: ProductWorld | None = None,
    user: UserContext | None = None,
    with_master: bool = True,
    cursor: str | None = None,
) -> Wrangler:
    """A ready-to-run Wrangler over a generated world (default: the
    standard one, so the static typechecker can build the plan); every
    source declares ``cursor`` as its delta cursor when one is given."""
    world = world or standard_world()
    user = user or UserContext.precision_first(
        "bench", TARGET_SCHEMA, budget=60.0
    )
    data = DataContext("products").with_ontology(product_ontology())
    if with_master:
        data.add_master("catalog", world.ground_truth)
    wrangler = Wrangler(
        user,
        data,
        master_key="catalog" if with_master else None,
        join_attribute="product" if with_master else None,
        today=TODAY,
    )
    for name, rows in world.source_rows.items():
        spec = world.specs[name]
        wrangler.add_source(
            MemorySource(name, rows, cost_per_access=spec.cost,
                         change_rate=spec.staleness, cursor=cursor)
        )
    return wrangler
