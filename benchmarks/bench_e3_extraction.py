"""E3 — Wild-web extraction at scale, informed by the data context
(Section 2.2, Example 3, and [29] WADaR).

Claims: (i) "fully-automated, large scale collection of long-tail ...
data is possible"; (ii) "the extraction process can be 'informed' by
existing integrated data ... to identify previously unknown locations and
correct erroneous ones".

We render n sites per template family, extract with (a) fully automatic
induction, (b) 3-example supervised induction, (c) supervised induction +
data-context repair, and measure field-level accuracy against the rendered
listings.  Expected shape: (b) >= (a); (c) recovers the messy template
where (a) and (b) alone cannot segment the price; accuracy holds flat as
site count grows (scale comes from automation, not per-site effort).
"""

import random

from repro.context.data_context import DataContext
from repro.datagen.htmlgen import annotations_for, random_listings, render_site
from repro.datagen.ontologies import product_ontology
from repro.extraction.induction import auto_induce, induce_wrapper
from repro.extraction.patterns import recogniser
from repro.extraction.repair import WrapperRepairer
from repro.extraction.wrapper import Pages

from helpers import bench_telemetry, emit, emit_telemetry, format_table, timed

CONTEXT = DataContext("products").with_ontology(product_ontology())


def make_sites(n_sites: int, seed: int):
    rng = random.Random(seed)
    sites = []
    for index in range(n_sites):
        template = ("grid", "table", "messy")[index % 3]
        listings = random_listings(20, rng)
        sites.append(render_site(f"site-{index}", listings, template))
    return sites


def price_accuracy(table, site) -> float:
    """Fraction of listings whose price was extracted exactly."""
    wanted = []
    for listing in site.listings:
        value = recogniser("price").find(listing["price"])
        if value is not None:
            wanted.append(value)
    got = []
    for record in table:
        raw = record.raw("price")
        if raw is None:
            continue
        if isinstance(raw, str):
            raw = recogniser("price").find(raw)
        if raw is not None:
            got.append(float(raw))
    if not wanted:
        return 1.0
    matched = 0
    pool = list(got)
    for value in wanted:
        for candidate in pool:
            if abs(candidate - value) < 0.01:
                pool.remove(candidate)
                matched += 1
                break
    return matched / len(wanted)


def run_mode(sites, mode: str) -> float:
    scores = []
    for site in sites:
        documents = Pages.of(site.documents())
        try:
            if mode == "auto":
                wrapper = auto_induce(documents, source=site.name)
            else:
                wrapper = induce_wrapper(
                    documents, annotations_for(site, 3), source=site.name
                )
            if mode == "examples+repair":
                repairer = WrapperRepairer(CONTEXT)
                wrapper, table, __ = repairer.repair(wrapper, documents)
            else:
                table = wrapper.extract(documents)
            scores.append(price_accuracy(table, site))
        except Exception:  # noqa: BLE001 - a failed site scores zero
            scores.append(0.0)
    return sum(scores) / len(scores)


def test_e3_extraction_scale_and_context(benchmark):
    telemetry = bench_telemetry()
    rows = []
    results = {}
    for n_sites in (6, 15, 30):
        sites = make_sites(n_sites, seed=n_sites)
        for mode in ("auto", "examples", "examples+repair"):
            accuracy, __ = timed(
                telemetry,
                f"extract.{mode}",
                lambda s=sites, m=mode: run_mode(s, m),
                sites=n_sites,
            )
            results[(n_sites, mode)] = accuracy
            rows.append([n_sites, mode, f"{accuracy:.2f}"])
    benchmark.pedantic(
        lambda: run_mode(make_sites(15, seed=15), "examples+repair"),
        rounds=1, iterations=1,
    )
    emit(
        "E3-extraction",
        format_table(["sites", "mode", "price field accuracy"], rows),
    )
    emit_telemetry("E3-extraction", telemetry.snapshot())
    # Context-informed repair dominates, at every scale.
    for n_sites in (6, 15, 30):
        assert (
            results[(n_sites, "examples+repair")]
            >= results[(n_sites, "examples")]
        )
        assert results[(n_sites, "examples+repair")] > 0.8
    # Accuracy does not degrade with more sites (automation scales).
    assert (
        results[(30, "examples+repair")]
        >= results[(6, "examples+repair")] - 0.1
    )
