"""Quickstart: wrangle a multi-source product world in five minutes.

This walks the abstract architecture of the paper's Figure 1 end to end:

1. generate a synthetic e-commerce world (the Data Sources);
2. declare a user context (what *you* need) and a data context (what the
   system already knows: master data + a product ontology);
3. let the autonomic Wrangler plan and run the pipeline;
4. inspect the wrangled data, its quality report, and a value's lineage.

Run:  python examples/quickstart.py
"""

import datetime

from repro import DataContext, MemorySource, UserContext, Wrangler
from repro.datagen import TARGET_SCHEMA, generate_world, product_ontology
from repro.evaluation import wrangle_scorecard

TODAY = datetime.date(2016, 3, 15)


def build_wrangler(world=None):
    """The quickstart pipeline: 60 products, 6 retailers, one analyst.

    Zero-argument by convention so ``python -m repro.analysis typecheck``
    can build and statically check the plan without running it.
    """
    # -- 1. a world: 60 products, 6 retailers with the 4 V's dialled in ----
    if world is None:
        world = generate_world(n_products=60, n_sources=6, seed=2016)

    # -- 2. contexts -------------------------------------------------------
    user = UserContext.precision_first("analyst", TARGET_SCHEMA, budget=40.0)
    data = (
        DataContext("products")
        .with_ontology(product_ontology())
        .add_master("catalog", world.ground_truth)
    )

    wrangler = Wrangler(user, data, today=TODAY)
    for name, rows in world.source_rows.items():
        spec = world.specs[name]
        wrangler.add_source(
            MemorySource(name, rows, cost_per_access=spec.cost,
                         change_rate=spec.staleness, domain="products")
        )
    return wrangler


def main() -> None:
    world = generate_world(n_products=60, n_sources=6, seed=2016)
    print(f"generated {len(world.ground_truth)} true products, "
          f"{len(world.source_rows)} retailer sources\n")

    wrangler = build_wrangler(world)
    print(wrangler.user.describe(), "\n")

    # -- 3. wrangle -----------------------------------------------------------
    result = wrangler.run()

    # -- 4. inspect ---------------------------------------------------------
    print(result.explain())
    print()
    print(result.table.project(
        ["product", "brand", "price", "updated"]
    ).head(8).render())
    print()

    first = result.table[0]
    print(f"why do we believe the price of {first.raw('product')!r}?")
    print(result.why(first.rid, "price"))
    print()

    scorecard = wrangle_scorecard(result.table, world)
    print("scorecard vs hidden ground truth:",
          {k: round(v, 3) for k, v in scorecard.items()})


if __name__ == "__main__":
    main()
