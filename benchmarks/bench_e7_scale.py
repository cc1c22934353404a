"""E7 — Scalability: volume, partitioned execution, approximation
(Section 4.3).

Claims: (i) wrangling tasks must run on partitioned (map/reduce-style)
platforms; (ii) query approximation trades bounded work for bounded error;
(iii) access-bounded evaluation answers queries while touching a constant
number of tuples.

Measured: ER wall-clock single-node vs partitioned as rows grow (shape:
partitioned grows more slowly, same clusters when blocking keys co-locate
duplicates); approximate COUNT error vs fraction of data touched; bounded
evaluation's tuple accesses vs table size (shape: flat).
"""

import random

from repro.model.records import Table
from repro.resolution.comparison import profiled_comparator
from repro.resolution.er import EntityResolver
from repro.resolution.rules import ThresholdRule
from repro.scale.access import AccessConstraint, BoundedEvaluator
from repro.scale.approximation import approximate_count
from repro.scale.partition import partitioned_resolve
from repro.scale.queries import Atom, ConjunctiveQuery, Variable

from helpers import bench_telemetry, emit, emit_telemetry, format_table, timed

WORDS = ("aurora", "basalt", "cobalt", "dune", "ember", "fjord", "garnet",
         "harbor", "iris", "jasper", "krill", "lumen", "mesa", "nadir")


def offers_table(n_rows: int, seed: int) -> Table:
    rng = random.Random(seed)
    rows = []
    for index in range(n_rows // 2):
        name = f"{rng.choice(WORDS)} {rng.choice(WORDS)} {index}"
        for __ in range(2):  # every entity appears twice
            rows.append(
                {"name": name, "vendor": f"v{rng.randrange(20)}",
                 "price": round(rng.uniform(10, 500), 2)}
            )
    return Table.from_rows("offers", rows)


def test_e7_partitioned_er(benchmark):
    telemetry = bench_telemetry()
    rows = []
    for n_rows in (200, 400, 800):
        table = offers_table(n_rows, seed=n_rows)
        comparator = profiled_comparator(table.schema, table,
                                         attributes=["name"])
        resolver = EntityResolver(comparator=comparator,
                                  rule=ThresholdRule(0.95),
                                  small_table_cutoff=10**9)
        single, single_time = timed(
            telemetry, "er.single", lambda: resolver.resolve(table),
            rows=n_rows,
        )
        parted, parted_time = timed(
            telemetry,
            "er.partitioned",
            lambda: partitioned_resolve(
                table, resolver, 8,
                blocking_key=lambda r: str(r.raw("name")).split()[-1],
            ),
            rows=n_rows,
        )
        rows.append(
            [n_rows, f"{single_time:.2f}", f"{parted_time:.2f}",
             len(single.non_singleton()), len(parted.non_singleton())]
        )
        # No timing assert: since the prune kernels a single-node resolve
        # at these sizes takes milliseconds, so fan-out overhead decides
        # the comparison.  Blocking key = unique suffix: no recall loss
        # from partitioning.
        assert len(parted.non_singleton()) == len(single.non_singleton())
    table = offers_table(400, seed=400)
    comparator = profiled_comparator(table.schema, table, attributes=["name"])
    resolver = EntityResolver(comparator=comparator, rule=ThresholdRule(0.95),
                              small_table_cutoff=10**9)
    benchmark.pedantic(
        lambda: partitioned_resolve(
            table, resolver, 8,
            blocking_key=lambda r: str(r.raw("name")).split()[-1],
        ),
        rounds=1, iterations=1,
    )
    emit(
        "E7a-partitioned-er",
        format_table(
            ["rows", "single-node s", "partitioned s",
             "dup clusters (single)", "dup clusters (partitioned)"],
            rows,
        ),
    )
    emit_telemetry("E7a-partitioned-er", telemetry.snapshot())


def test_e7_query_approximation(benchmark):
    table = offers_table(4000, seed=7)
    relations = {"offers": table}
    # head projects (name, price): answers are row-distinct, so the
    # Bernoulli estimator is unbiased (see approximate_count's contract).
    query = ConjunctiveQuery(
        ("n", "p"),
        (Atom("offers", {"name": Variable("n"), "price": Variable("p")}),),
    )
    exact = query.count(relations)
    benchmark.pedantic(
        lambda: approximate_count(query, relations, rate=0.1, seed=10),
        rounds=2, iterations=1,
    )
    rows = []
    for rate in (0.05, 0.1, 0.25, 0.5):
        answer = approximate_count(query, relations, rate=rate, seed=rate_seed(rate))
        error = abs(answer.estimate - exact) / exact
        rows.append(
            [f"{rate:.2f}", f"{answer.work_fraction:.2f}",
             f"{answer.estimate:.0f}", exact, f"{error:.2%}"]
        )
        assert error < 0.35
    emit(
        "E7b-approximation",
        format_table(
            ["sampling rate", "work fraction", "estimate", "exact", "error"],
            rows,
        ),
    )


def rate_seed(rate: float) -> int:
    return int(rate * 100)


def test_e7_access_bounded_evaluation(benchmark):
    telemetry = bench_telemetry()
    rows = []
    accesses = []
    bench_case = None
    for n_rows in (500, 2000, 8000):
        table = offers_table(n_rows, seed=n_rows + 1)
        target = table[0].raw("name")
        evaluator = BoundedEvaluator(
            [AccessConstraint("offers", ("name",), bound=10)], budget=10_000,
            metrics=telemetry.metrics,
        )
        query = ConjunctiveQuery(
            ("p",),
            (Atom("offers", {"name": target, "price": Variable("p")}),),
        )
        evaluator.evaluate(query, {"offers": table})
        accesses.append(evaluator.accesses)
        rows.append([n_rows, evaluator.accesses])
        bench_case = (query, table)
    query, table = bench_case
    benchmark.pedantic(
        lambda: BoundedEvaluator(
            [AccessConstraint("offers", ("name",), bound=10)], budget=10_000
        ).evaluate(query, {"offers": table}),
        rounds=2, iterations=1,
    )
    emit(
        "E7c-access-bounded",
        format_table(["table rows", "tuples accessed"], rows),
    )
    emit_telemetry("E7c-access-bounded", telemetry.snapshot())
    # Scale independence: the number of tuples fetched does not grow with
    # the database (each entity appears exactly twice).
    assert max(accesses) <= 4
