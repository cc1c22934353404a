"""The four wrangle workloads, driven through the public façade only.

A workload object is built once per round (one child process): its
constructor is the *set-up* (world generation, rendering / file writing,
and on the tick workloads the warming cold run), ``prepare`` picks an
op's inputs outside the clock, ``op`` is the timed call into
``Wrangler``, and ``check`` is the untimed per-op oracle.  The op
scripts are fixed-length and seeded: work per op index is the same in
every round of a run, which is what lets the parent pool samples by
index.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import random
from pathlib import Path

from repro import (
    CSVSource,
    DataContext,
    MemoryDocumentSource,
    MemorySource,
    UserContext,
    Wrangler,
)
from repro.datagen import (
    TARGET_SCHEMA,
    TEMPLATES,
    TRUTH_COLUMN,
    SourceSpec,
    annotations_for,
    generate_world,
    product_ontology,
    render_site,
)
from repro.feedback import (
    DuplicateFeedback,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.ingest.checkpoint import CheckpointStore

import checks

TODAY = datetime.date(2016, 3, 15)

#: The retailer fleet is part of the workload definition, not of the
#: seed: six sources in the three quality tiers of
#: ``datagen.default_specs`` (two curated, three mid-tier with one
#: bordering on scraped), priced so that budgeted selection keeps all
#: six on most seeds.  Drawing the fleet from the seed as well moves the
#: ledger cost of a cold run by 2x and price accuracy by 40% between
#: seeds, which no bound could gate; the seed draws the catalogue, which
#: products each retailer lists, and every corruption.
FLEET = (
    SourceSpec("retailer-00", coverage=0.59, error_rate=0.03, staleness=0.03,
               missing_rate=0.04, cost=3.4, schema_variant=1),
    SourceSpec("retailer-01", coverage=0.56, error_rate=0.13, staleness=0.13,
               missing_rate=0.18, cost=1.3, schema_variant=1),
    SourceSpec("retailer-02", coverage=0.79, error_rate=0.04, staleness=0.01,
               missing_rate=0.02, cost=3.0, schema_variant=2),
    SourceSpec("retailer-03", coverage=0.61, error_rate=0.12, staleness=0.17,
               missing_rate=0.19, cost=1.6, schema_variant=2),
    SourceSpec("retailer-04", coverage=0.76, error_rate=0.03, staleness=0.00,
               missing_rate=0.04, cost=2.6, schema_variant=0),
    SourceSpec("retailer-05", coverage=0.66, error_rate=0.08, staleness=0.12,
               missing_rate=0.20, cost=1.8, schema_variant=2),
)

#: Each retailer lists exactly this share of its expected listing count
#: (coverage x products), sampled by the seed from the generated rows, so
#: the row count — and with it the work of an op — is the same on every
#: seed.  0.9 sits 2 sigma below the binomial mean at 300 products.
LISTED_SHARE = 0.9


def build_world(n_products: int, seed: int, fleet=FLEET):
    """The seeded world over the fixed fleet, trimmed to fixed row counts."""
    world = generate_world(n_products, seed=seed, specs=list(fleet))
    rng = random.Random(seed)
    for spec in fleet:
        rows = world.source_rows[spec.name]
        keep = int(LISTED_SHARE * spec.coverage * n_products)
        if len(rows) > keep:
            kept = sorted(rng.sample(range(len(rows)), keep))
            world.source_rows[spec.name] = [rows[i] for i in kept]
    return world


def new_wrangler(world) -> Wrangler:
    """The quickstart contexts over ``world``, no sources registered."""
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=40.0)
    data = (
        DataContext("products")
        .with_ontology(product_ontology())
        .add_master("catalog", world.ground_truth)
    )
    return Wrangler(user, data, today=TODAY)


def source_options(spec: SourceSpec) -> dict:
    return {
        "cost_per_access": spec.cost,
        "change_rate": spec.staleness,
        "domain": "products",
    }


class ColdStructured:
    """Fresh ``Wrangler`` + one cold ``run()`` over six memory sources."""

    name = "cold_structured"
    # One op per process: time to a first table is paid in a cold
    # interpreter, and short rounds give the parent more replicas.
    ops_per_round = 1
    #: Untimed ops played at the end of set-up (indices -n .. -1).
    warmup_ops = 0
    n_products = 300
    fleet = FLEET
    #: Directory whose growth is the op's disk writes (None: no store).
    store_root = None
    #: The standing wrangler and its latest result, on the workloads
    #: whose set-up includes the warming cold run.
    wrangler = None
    result = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.world = build_world(self.n_products, seed, self.fleet)

    def truth_of(self, record):
        return record.raw(TRUTH_COLUMN)

    def keeps_fleet(self, result) -> bool:
        """Whether the planner kept every source of the fleet.

        Budgeted selection drops one source on some worlds (about one in
        ten structured, one in four rendered).  A five-source run is a
        different workload — a fifth less ledger cost, a tenth less op
        time, 0.07 less ``er_f1`` on documents — so the parent redraws
        such a world instead of mixing the two in one metric.
        """
        return len(result.plan.sources) == len(self.fleet)

    def build(self) -> Wrangler:
        wrangler = new_wrangler(self.world)
        for name, rows in self.world.source_rows.items():
            wrangler.add_source(
                MemorySource(name, rows, **source_options(self.world.specs[name]))
            )
        return wrangler

    def prepare(self, index: int):
        return None

    def op(self, prepared):
        wrangler = self.build()
        return wrangler, wrangler.run()

    def check(self, prepared, wrangler, result) -> dict:
        # A cold op must also reproduce the table of every other cold
        # op; with one op per process the parent checks that, across
        # rounds, on the final fingerprints.
        return {
            "rows": sum(
                len(wrangler.relations()[f"raw/{name}"])
                for name in result.plan.sources
            ),
            "failure": checks.non_empty(result),
        }


class ColdDocuments(ColdStructured):
    """The same façade over six rendered web sites (extraction front end)."""

    name = "cold_documents"
    n_products = 600
    examples_per_site = 3
    # Rendered listings use the canonical attribute names; the sites
    # differ in DOM shape instead (grid / table / messy, rotating).
    fleet = tuple(
        dataclasses.replace(spec, schema_variant=0) for spec in FLEET
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.sites = []
        self.truth_by_title = {}
        for index, (name, rows) in enumerate(self.world.source_rows.items()):
            listings = [
                {
                    key: "" if value is None else str(value)
                    for key, value in row.items()
                    if key != TRUTH_COLUMN
                }
                for row in rows
            ]
            self.sites.append(
                render_site(name, listings, TEMPLATES[index % len(TEMPLATES)])
            )
            for row in rows:
                key = (name, checks.title_key(row["product"]))
                self.truth_by_title[key] = row[TRUTH_COLUMN]

    def truth_of(self, record):
        title = record.raw("product")
        if title is None:
            return None
        return self.truth_by_title.get(
            (record.source, checks.title_key(str(title)))
        )

    def build(self) -> Wrangler:
        wrangler = new_wrangler(self.world)
        for site in self.sites:
            wrangler.add_source(
                MemoryDocumentSource(
                    site.name, site.pages,
                    **source_options(self.world.specs[site.name]),
                )
            )
            wrangler.annotate_examples(
                site.name, annotations_for(site, self.examples_per_site)
            )
        return wrangler

    def check(self, prepared, wrangler, result) -> dict:
        outcome = super().check(prepared, wrangler, result)
        outcome["counters"] = {
            "extraction.rows_out": outcome["rows"],
            "extraction.listings": sum(
                len(site.listings)
                for site in self.sites
                if site.name in result.plan.sources
            ),
        }
        return outcome


class FeedbackTicks(ColdStructured):
    """One feedback item + incremental ``run()`` per tick (Section 2.4)."""

    name = "feedback_ticks"
    ops_per_round = 8
    kinds = ("value", "duplicate", "match", "relevance")
    match_attributes = ("price", "product", "brand", "updated")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.rng = random.Random(seed)
        self.wrangler = self.build()
        self.result = self.wrangler.run()
        self.true_prices = {
            record.raw("product_id"): float(record.raw("price"))
            for record in self.world.ground_truth
        }

    def prepare(self, index: int):
        """The tick's feedback item: seeded pick, ground-truth verdict."""
        kind = self.kinds[index % len(self.kinds)]
        cycle = index // len(self.kinds)
        sources = self.result.plan.sources
        source = sources[cycle % len(sources)]
        if kind == "value":
            table = self.result.table
            record = table[self.rng.randrange(len(table))]
            expected = self.true_prices.get(record.raw(TRUTH_COLUMN))
            return ValueFeedback(
                entity=record.rid,
                attribute="price",
                is_correct=checks.price_matches(record.raw("price"), expected),
            )
        if kind == "duplicate":
            translated = self.wrangler.relations()["translated"]
            position = self.rng.randrange(len(translated))
            left = translated[position]
            truth = left.raw(TRUTH_COLUMN)
            # Alternate a true co-referent (when one exists) with the
            # neighbouring row, so both verdicts occur.
            partners = [
                record for record in translated
                if record.raw(TRUTH_COLUMN) == truth and record.rid != left.rid
            ]
            if cycle % 2 == 0 and partners:
                right = partners[0]
            else:
                right = translated[(position + 1) % len(translated)]
            return DuplicateFeedback(
                rid_a=left.rid,
                rid_b=right.rid,
                is_duplicate=truth is not None
                and right.raw(TRUTH_COLUMN) == truth,
            )
        if kind == "match":
            canonical = self.match_attributes[
                cycle % len(self.match_attributes)
            ]
            return MatchFeedback(
                source_name=source,
                source_attribute=self.world.renames[source][canonical],
                target_attribute=canonical,
                is_correct=True,
            )
        return RelevanceFeedback(source_name=source, is_relevant=True)

    def op(self, item):
        self.wrangler.apply_feedback([item])
        self.result = self.wrangler.run()
        return self.wrangler, self.result

    def check(self, item, wrangler, result) -> dict:
        return {
            "rows": len(wrangler.relations()["translated"]),
            "failure": checks.non_empty(result),
            "incremental": True,
        }


class RefreshDurable(ColdStructured):
    """Append to a CSV source, delta-refresh it under a checkpoint store."""

    name = "refresh_durable"
    ops_per_round = 6
    # The first refresh of a process is the first call of the delta path
    # (``fetch_delta``, ``merge_delta``): about a tenth slower than the
    # second.
    warmup_ops = 1
    initial_share = 0.6
    rows_per_tick = 5

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.paths = {}
        self.held_back = {}
        self.next_seq = {}
        for name, rows in self.world.source_rows.items():
            cut = int(self.initial_share * len(rows))
            self.paths[name] = workdir / f"{name}.csv"
            self.held_back[name] = rows[cut:]
            self.next_seq[name] = 0
            self.append(name, rows[:cut], header=True)
        self.store_root = workdir / "checkpoints"
        self.wrangler = new_wrangler(self.world)
        for name, path in self.paths.items():
            self.wrangler.add_source(
                CSVSource(name, path, cursor="seq",
                          **source_options(self.world.specs[name]))
            )
        self.wrangler.checkpointing(CheckpointStore(self.store_root))
        self.result = self.wrangler.run()

    def append(self, name: str, rows, header: bool = False) -> None:
        """Write rows to the source's file under a zero-padded cursor.

        ``CSVSource`` cursors compare as strings, so an unpadded integer
        cursor ("99" > "147") would turn every tick into a full refetch.
        """
        columns = list(rows[0]) + ["seq"]
        with self.paths[name].open(
            "w" if header else "a", newline="", encoding="utf-8"
        ) as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            if header:
                writer.writeheader()
            for row in rows:
                seq = self.next_seq[name]
                self.next_seq[name] = seq + 1
                writer.writerow({**row, "seq": f"{seq:06d}"})

    def prepare(self, index: int):
        sources = self.result.plan.sources
        name = sources[index % len(sources)]
        rows = self.held_back[name][: self.rows_per_tick]
        self.held_back[name] = self.held_back[name][self.rows_per_tick:]
        return name, rows

    def op(self, prepared):
        name, rows = prepared
        self.append(name, rows)
        self.wrangler.refresh_source(name)
        self.result = self.wrangler.run()
        return self.wrangler, self.result

    def check(self, prepared, wrangler, result) -> dict:
        name, rows = prepared
        stored = wrangler.relations()[f"raw/{name}"]
        reread = CSVSource(name, self.paths[name]).fetch().infer_schema()
        return {
            "rows": len(stored),
            "failure": checks.first_failure(
                checks.non_empty(result),
                checks.delta_mode(result, name),
                checks.same_rows(stored, reread),
            ),
            "incremental": True,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ColdStructured, ColdDocuments, FeedbackTicks, RefreshDurable)
}
