"""Seeded draws of composed plans through the pre-execution gate.

Each draw builds a ``Wrangler`` the way a user would: a synthetic world
(structured products, rendered product sites, job boards or business
locations), a user context (random criteria weights, sometimes a
negative raw weight or a timeliness-dominant mix; random floors; an
unbounded, zero or finite budget), a data context (with or without an
ontology and master data) and a source mix (zero-cost, chaotic and dead
sources).  It then runs ``Wrangler.preflight()`` and records the plan
the autonomic planner composed, the gate's report and the probe
artifacts the gate read.

:data:`ARMS` names every rule arm the gate has had.  A *live* arm is
counted from the report: it stays because a user-written defect fires
it.  A *retired* arm left the gate because a composed plan never fires
it; its predicate restates the defect over the plan and the probe
artifacts, and ``tests/analysis/test_gate_draws.py`` asserts it holds
on no draw.

    python tools/gate_draws.py --draws 500          # or: make gate-draws N=500
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro import DataContext, MemorySource, UserContext, Wrangler
from repro.analysis.typecheck import probe_artifacts
from repro.core.wrangler import STAGES
from repro.datagen import (
    JOB_SCHEMA,
    LOCATION_SCHEMA,
    TARGET_SCHEMA,
    TEMPLATES,
    TRUTH_COLUMN,
    annotations_for,
    default_specs,
    generate_job_world,
    generate_location_world,
    generate_world,
    job_ontology,
    location_ontology,
    product_ontology,
    render_site,
)
from repro.fusion.strategies import STRATEGIES
from repro.model.annotations import Dimension
from repro.model.schema import DataType
from repro.resilience.chaos import ChaosSource, FaultPlan
from repro.resolution.comparison import TRANSIENT_DTYPES
from repro.sources.memory import MemoryDocumentSource

WORLDS = ("products", "documents", "jobs", "locations")

#: The criteria a drawn user context may weigh.
CRITERIA = tuple(Dimension)


@dataclass
class Outcome:
    """One draw: what was built, what the planner composed, what the
    gate reported and which probe artifacts it read."""

    index: int
    world: str
    knobs: dict[str, Any]
    wrangler: Wrangler
    plan: Any
    report: Any
    schemas: dict[str, Any]
    mappings: dict[str, Any]


# -- drawing -----------------------------------------------------------------


def _weights(rng: random.Random, knobs: dict) -> dict[Dimension, float]:
    chosen = rng.sample(CRITERIA, rng.randint(1, 5))
    weights = {dim: rng.uniform(0.05, 1.0) for dim in chosen}
    if rng.random() < 0.25:
        # Timeliness dominates: the planner picks recency fusion.
        weights[Dimension.TIMELINESS] = 1.0 + sum(weights.values())
        knobs["timeliness_dominant"] = True
    if len(weights) > 1 and rng.random() < 0.12:
        # A negative raw weight: normalisation only needs a positive sum.
        # Kept under half the positive mass, so normalised weights stay
        # within [-1, 2].
        victim = rng.choice(sorted(weights, key=lambda d: d.value))
        rest = sum(w for dim, w in weights.items() if dim is not victim)
        weights[victim] = -rng.uniform(0.05, 0.5) * rest
        knobs["negative_weight"] = victim.value
    return weights


def _floors(rng: random.Random) -> dict[Dimension, float]:
    if rng.random() >= 0.4:
        return {}
    return {
        dim: round(rng.uniform(0.1, 0.8), 2)
        for dim in rng.sample(CRITERIA, rng.randint(1, 2))
    }


def _budget(rng: random.Random, costs: list[float], knobs: dict) -> float:
    roll = rng.random()
    if roll < 0.45:
        return float("inf")
    if roll < 0.55:
        knobs["zero_budget"] = True
        return 0.0
    return round(rng.uniform(0.0, 1.2 * sum(costs)), 2)


def _cost(rng: random.Random, drawn: float, knobs: dict) -> float:
    if rng.random() < 0.2:
        knobs["free_sources"] = knobs.get("free_sources", 0) + 1
        return 0.0
    return round(drawn, 2)


def _structured(name, rows, cost, chaos):
    source = MemorySource(name, rows, cost_per_access=cost)
    fault = chaos.get(name)
    if fault is None:
        return source
    return ChaosSource(source, fault)


def _chaos(rng: random.Random, names: list[str], knobs: dict) -> dict:
    """Fault plans for a structured source mix: dead sources (always
    leaving one alive) and corrupting ones."""
    plans: dict[str, FaultPlan] = {}
    roll = rng.random()
    if roll < 0.2 and len(names) >= 3:
        dead = rng.sample(names, rng.randint(2, len(names) - 1))
    elif roll < 0.4 and len(names) >= 2:
        dead = rng.sample(names, 1)
    else:
        dead = []
    for name in dead:
        plans[name] = FaultPlan(dead=True)
    for name in names:
        if name not in plans and rng.random() < 0.15:
            plans[name] = FaultPlan(corrupt_rate=0.3, seed=rng.randrange(999))
    knobs["dead"] = len(dead)
    knobs["corrupt"] = len(plans) - len(dead)
    return plans


def _products(rng, knobs, documents: bool):
    scale = not documents and rng.random() < 0.06
    n_products = rng.randint(600, 900) if scale else rng.randint(10, 50)
    n_sources = 6 if scale else rng.randint(2, 6)
    seed = rng.randrange(10**6)
    specs = None
    if documents:
        # Rendered listings use the canonical attribute names; the sites
        # differ in DOM shape instead.
        specs = [
            dataclasses.replace(spec, schema_variant=0)
            for spec in default_specs(n_sources, random.Random(seed))
        ]
    world = generate_world(
        n_products=n_products, n_sources=n_sources, seed=seed, specs=specs
    )
    knobs.update(products=n_products, sources=n_sources)
    sources = []
    if documents:
        annotate = rng.random() < 0.5
        knobs["annotated"] = annotate
        for index, (name, rows) in enumerate(world.source_rows.items()):
            listings = [
                {
                    key: "" if value is None else str(value)
                    for key, value in row.items()
                    if key != TRUTH_COLUMN
                }
                for row in rows
            ]
            site = render_site(
                name, listings, TEMPLATES[index % len(TEMPLATES)]
            )
            cost = _cost(rng, world.specs[name].cost, knobs)
            examples = annotations_for(site) if annotate else ()
            sources.append(
                (MemoryDocumentSource(name, site.pages, cost_per_access=cost),
                 examples)
            )
    else:
        chaos = _chaos(rng, list(world.source_rows), knobs)
        for name, rows in world.source_rows.items():
            cost = _cost(rng, world.specs[name].cost, knobs)
            sources.append(
                (_structured(name, rows, cost, chaos), ())
            )
    return TARGET_SCHEMA, product_ontology(), world.ground_truth, sources


def _jobs(rng, knobs):
    world = generate_job_world(
        n_jobs=rng.randint(10, 40), n_boards=rng.randint(2, 5),
        seed=rng.randrange(10**6),
    )
    chaos = _chaos(rng, list(world.board_rows), knobs)
    sources = [
        (_structured(name, rows,
                     _cost(rng, rng.uniform(0.2, 3.0), knobs), chaos), ())
        for name, rows in world.board_rows.items()
    ]
    return JOB_SCHEMA, job_ontology(), world.ground_truth, sources


def _locations(rng, knobs):
    world = generate_location_world(
        n_businesses=rng.randint(10, 40), seed=rng.randrange(10**6)
    )
    families = {
        "checkins": world.checkin_rows,
        "directory": world.directory_rows,
        "websites": world.website_rows,
    }
    chaos = _chaos(rng, list(families), knobs)
    sources = [
        (_structured(name, rows,
                     _cost(rng, rng.uniform(0.2, 6.0), knobs), chaos), ())
        for name, rows in families.items()
    ]
    return LOCATION_SCHEMA, location_ontology(), world.ground_truth, sources


def draw(index: int) -> tuple[str, dict, Wrangler]:
    """The ``index``-th drawn wrangler, unprobed; the index seeds it."""
    rng = random.Random(f"gate-draws:{index}")
    world = rng.choice(WORLDS)
    knobs: dict[str, Any] = {}
    if world in ("products", "documents"):
        schema, ontology, truth, sources = _products(
            rng, knobs, world == "documents"
        )
    elif world == "jobs":
        schema, ontology, truth, sources = _jobs(rng, knobs)
    else:
        schema, ontology, truth, sources = _locations(rng, knobs)

    data = DataContext(world)
    if rng.random() < 0.5:
        data.with_ontology(ontology)
        knobs["ontology"] = True
    if rng.random() < 0.5:
        data.add_master("catalog", truth)
        knobs["master"] = True
    roll = rng.random()
    master_key = None
    if roll < 0.35 and knobs.get("master"):
        master_key = "catalog"
    elif roll < 0.45:
        # Declared, but possibly absent from the data context.
        master_key = "catalog"
    knobs["master_key"] = master_key

    costs = [source.metadata.cost_per_access for source, _ in sources]
    user = UserContext(
        f"draw-{index}",
        schema,
        weights=_weights(rng, knobs),
        floors=_floors(rng),
        budget=_budget(rng, costs, knobs),
    )
    roll = rng.random()
    date_attribute = None
    if roll < 0.15:
        dated = [a.name for a in schema if a.dtype is DataType.DATE]
        date_attribute = dated[0] if dated else None
    elif roll < 0.3:
        date_attribute = rng.choice(schema.names)
    knobs["date_attribute"] = date_attribute

    wrangler = Wrangler(
        user, data, master_key=master_key, date_attribute=date_attribute
    )
    for source, examples in sources:
        wrangler.add_source(source)
        if examples:
            wrangler.annotate_examples(source.name, examples)
    return world, knobs, wrangler


def run_draw(index: int) -> Outcome:
    """Draw, preflight, and record what the gate saw."""
    world, knobs, wrangler = draw(index)
    report = wrangler.preflight()
    # Re-planning from the same beliefs composes the plan preflight gated.
    plan = wrangler.planner.plan(
        wrangler.user, wrangler.data, wrangler.registry,
        wrangler.working.annotations,
    )
    return Outcome(
        index, world, knobs, wrangler, plan, report,
        *probe_artifacts(wrangler.working),
    )


def run_draws(n: int) -> list[Outcome]:
    return [run_draw(index) for index in range(n)]


# -- the arms ------------------------------------------------------------------


def _found(outcome: Outcome, rule: str, where: Callable = lambda d: True):
    return any(
        d.rule == rule and where(d) for d in outcome.report.diagnostics
    )


def _target(outcome: Outcome):
    return outcome.wrangler.user.target_schema


def _matched_pairs(outcome: Outcome):
    """(probe schema, attribute map) over the probed planned sources."""
    for name in outcome.plan.sources:
        schema = outcome.schemas.get(name)
        mapping = outcome.mappings.get(name)
        if schema is None or mapping is None:
            continue
        for attribute_map in mapping.attribute_maps:
            yield schema, attribute_map


def _all_probed(outcome: Outcome) -> bool:
    return all(
        name in outcome.schemas and name in outcome.mappings
        for name in outcome.plan.sources
    )


def _spend(outcome: Outcome) -> float:
    registry = outcome.wrangler.registry
    return sum(
        registry.get(name).metadata.cost_per_access
        for name in outcome.plan.sources
    )


#: Type pairs a value can never cross by coercion (the retired TC003's
#: verdict): identity and anything into STRING always work, anything out
#: of STRING depends on the value, and only these numeric pairs cross.
_NUMERIC_CROSSINGS = {
    (DataType.INTEGER, DataType.FLOAT),
    (DataType.INTEGER, DataType.CURRENCY),
    (DataType.FLOAT, DataType.CURRENCY),
    (DataType.CURRENCY, DataType.FLOAT),
    (DataType.CURRENCY, DataType.INTEGER),
}


def _never_coerces(src: DataType, dst: DataType) -> bool:
    return not (
        src is dst
        or DataType.STRING in (src, dst)
        or (src, dst) in _NUMERIC_CROSSINGS
    )


def _tc003(outcome: Outcome) -> bool:
    target = _target(outcome)
    return any(
        m.source in schema
        and m.target in target
        and _never_coerces(schema[m.source].dtype, target[m.target].dtype)
        for schema, m in _matched_pairs(outcome)
    )


def _unfed_override(outcome: Outcome) -> bool:
    """A fusion override on a target attribute no probed planned source's
    mapping feeds."""
    target = _target(outcome)
    produced = {
        m.target for schema, m in _matched_pairs(outcome)
        if m.source in schema and m.target in target
    }
    return any(
        attribute in target and attribute not in produced
        for attribute in outcome.plan.fusion_overrides
    )


def _tc007_override(outcome: Outcome) -> bool:
    # The retired arm spoke only when every planned source was probed.
    return _all_probed(outcome) and _unfed_override(outcome)


def _tc008_domain(outcome: Outcome) -> bool:
    plan = outcome.plan
    return plan.fusion_strategy == "median" and not any(
        a.dtype.is_numeric() and a.name not in plan.fusion_overrides
        for a in _target(outcome)
    )


@dataclass(frozen=True)
class Arm:
    """One arm of one rule: how to tell that it fires on a draw."""

    rule: str
    arm: str
    live: bool
    fires: Callable[[Outcome], bool]
    test: str


def _live(rule, arm, test, where=lambda d: True):
    return Arm(rule, arm, True, lambda o: _found(o, rule, where), test)


def _retired(rule, arm, test, predicate):
    return Arm(rule, arm, False, predicate, test)


_VALIDATOR = "test_validator.py"
_TYPES = "test_typecheck_rules.py"
_COST = "test_cost_checks.py"
_DRAWS = "test_gate_draws.py"

ARMS: tuple[Arm, ...] = (
    _live("PV006", "negative criteria weight",
          f"{_DRAWS}, {_VALIDATOR}::test_negative_weight_pv006",
          lambda d: "criteria weight" in d.message),
    _live("PV007", "recency fusion without a date attribute",
          f"{_DRAWS}, {_VALIDATOR}::"
          "test_recency_without_any_date_attribute_warns_pv007",
          lambda d: d.location.node == "fusion_strategy"
          and "recency" in d.message),
    _live("PV007", "master_key without a master table",
          f"{_DRAWS}, {_VALIDATOR}::test_missing_master_data_pv007",
          lambda d: d.location.file == "data-context"),
    _live("PV008", "floor on a zero-weight dimension",
          f"{_DRAWS}, {_VALIDATOR}::"
          "test_floor_on_zero_weight_dimension_warns_pv008",
          lambda d: "hard floor" in d.message),
    _live("TC001", "selected source without a probe schema",
          f"{_DRAWS}, {_TYPES}::"
          "test_tc001_selected_source_without_schema_warns"),
    _live("TC007", "recency attribute no mapping produces",
          f"{_DRAWS}, {_TYPES}::test_tc007_unproduced_recency_attribute_warns",
          lambda d: d.location.node.startswith("date_attribute.")),
    _live("TC008", "recency keyed on a non-DATE attribute",
          f"{_DRAWS}, {_TYPES}::test_tc008_recency_keyed_on_non_date_attribute",
          lambda d: d.location.node.startswith("date_attribute.")),
    _live("TC009", "required attribute no mapping produces",
          f"{_DRAWS}, {_TYPES}::test_tc009_required_attribute_unproduced"),
    _live("CC004", "pooled cross-source resolve at scale",
          f"{_DRAWS}, {_COST}::test_cc004_cross_source_join_warns_at_scale"),
    _live("CC006", "spend under an unbounded budget",
          f"{_DRAWS}, {_COST}::test_cc006_unbounded_budget_is_an_advisory"),
    _retired("PV003", "plan selects an unregistered source",
             f"{_VALIDATOR}::test_unregistered_source_pv003",
             lambda o: bool(
                 set(o.plan.sources) - set(o.wrangler.registry.names())
             )),
    _retired("PV005", "plan threshold outside [0, 1]",
             f"{_VALIDATOR}::test_out_of_range_thresholds_pv005",
             lambda o: not all(
                 0.0 <= t <= 1.0
                 for t in (o.plan.match_threshold, o.plan.er_threshold)
             )),
    _retired("PV006", "floor outside [0, 1]",
             f"{_VALIDATOR}::test_floor_outside_unit_interval_is_refused",
             lambda o: not all(
                 0.0 <= f <= 1.0 for f in o.wrangler.user.floors.values()
             )),
    _retired("PV007", "unknown fusion strategy",
             f"{_VALIDATOR}::test_unknown_strategy_pv007",
             lambda o: o.plan.fusion_strategy not in STRATEGIES),
    _retired("PV007", "override names an unknown strategy",
             f"{_VALIDATOR}::test_unknown_override_strategy_pv007",
             lambda o: any(
                 s not in STRATEGIES for s in o.plan.fusion_overrides.values()
             )),
    _retired("PV007", "override on an attribute absent from the target",
             f"{_VALIDATOR}::test_override_on_unknown_attribute_pv007",
             lambda o: any(
                 a not in _target(o) for a in o.plan.fusion_overrides
             )),
    _retired("PV007", "median override on a non-numeric attribute",
             f"{_VALIDATOR}::test_median_on_non_numeric_attribute_warns_pv007",
             lambda o: any(
                 s == "median" and a in _target(o)
                 and not _target(o)[a].dtype.is_numeric()
                 for a, s in o.plan.fusion_overrides.items()
             )),
    _retired("PV008", "plan spends more than the budget (both budget arms)",
             f"{_VALIDATOR}::test_plan_cost_exceeding_budget_pv008",
             lambda o: _spend(o) > o.wrangler.user.budget),
    _retired("TC002", "mapping reads an attribute the probe schema lacks",
             f"{_TYPES}::test_tc002_mapping_reads_missing_attribute",
             lambda o: any(
                 m.source not in schema for schema, m in _matched_pairs(o)
             )),
    _retired("TC003", "matched types never coerce",
             f"{_TYPES}::test_tc003_never_coercible_correspondence",
             _tc003),
    _retired("TC004", "probe mapping carries a transform to mistype",
             f"{_TYPES}::test_tc004_transform_outside_its_input_domain",
             lambda o: any(
                 getattr(m, "transform", None) is not None
                 for mapping in o.mappings.values()
                 for m in mapping.attribute_maps
             )),
    _retired("TC005", "ER attribute absent from the target",
             f"{_TYPES}::test_tc005_er_attribute_missing_from_schema",
             lambda o: any(
                 a not in _target(o) for a in o.plan.er_attributes
             )),
    _retired("TC006", "ER keyed on a transient type",
             f"{_TYPES}::test_tc006_er_keyed_on_transient_type",
             lambda o: any(
                 _target(o)[a].dtype in TRANSIENT_DTYPES
                 for a in o.plan.er_attributes if a in _target(o)
             )),
    _retired("TC007", "override on an attribute no mapping produces",
             f"{_TYPES}::test_tc007_override_on_unproduced_attribute",
             _tc007_override),
    _retired("TC008", "default strategy's value domain unsatisfiable",
             f"{_TYPES}::test_tc008_median_default_with_no_numeric_attribute",
             _tc008_domain),
    _retired("CC009", "node kind with no estimate",
             f"{_COST}::test_every_composed_kind_has_an_estimate",
             lambda o: any(
                 name.partition(":")[0] not in STAGES
                 for name in o.wrangler.flow.nodes()
             )),
)


def tally(outcomes: list[Outcome]) -> list[tuple[Arm, int]]:
    """``(arm, draws it fires on)`` for every arm, in :data:`ARMS` order."""
    return [
        (arm, sum(1 for outcome in outcomes if arm.fires(outcome)))
        for arm in ARMS
    ]


def render(outcomes: list[Outcome]) -> str:
    """The tally as the markdown table ``docs/ANALYSIS.md`` carries."""
    n = len(outcomes)
    lines = [
        "| rule / arm | draws | fired | verdict | test |",
        "|---|---|---|---|---|",
    ]
    for arm, fired in tally(outcomes):
        if arm.live:
            verdict = "stays" if fired else "stays (user-written test)"
        else:
            verdict = "retired" if not fired else "RETIRED BUT FIRES"
        lines.append(
            f"| {arm.rule} {arm.arm} | {n} | {fired} | {verdict} | "
            f"{arm.test} |"
        )
    worlds = {w: sum(1 for o in outcomes if o.world == w) for w in WORLDS}
    lines.append("")
    lines.append(
        "worlds: " + ", ".join(f"{w} {c}" for w, c in worlds.items())
        + "; with >= 2 dead sources: "
        + str(sum(1 for o in outcomes if o.knobs.get("dead", 0) >= 2))
        + "; median overrides composed: "
        + str(sum(1 for o in outcomes if o.plan.fusion_overrides))
        + " (every planned source probed: "
        + str(sum(
            1 for o in outcomes if o.plan.fusion_overrides and _all_probed(o)
        ))
        + "; on an attribute the probed sources do not feed: "
        + str(sum(1 for o in outcomes if _unfed_override(o)))
        + ")"
        + "; zero budget with free sources selected: "
        + str(sum(
            1 for o in outcomes
            if o.wrangler.user.budget == 0 and o.plan.sources
        ))
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=500)
    args = parser.parse_args(argv)
    outcomes = run_draws(args.draws)
    sys.stdout.write(render(outcomes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
