"""The operator table and the one walk over a plan's dataflow.

Figure 1 is one pipeline, so it is written down once: every dataflow
node kind the wrangler composes has exactly one :class:`Operator` row in
:data:`OPERATORS` — its pipeline ``stage``, its schema half (``check`` /
``infer`` from :mod:`~repro.analysis.typecheck.signatures`) and its cost
half (``estimate`` / ``cost_check`` from
:mod:`repro.analysis.cost.model`).  :func:`walk_plan` visits each node of
the :class:`~repro.core.dataflow.Dataflow` the wrangler composed from
:func:`pipeline_shape` (the one declaration of the wiring) once,
threading the inferred :class:`~repro.model.schema.Schema` and the
:class:`~repro.analysis.cost.model.CardinalityEstimate` from node to
node and collecting the ``TC`` and ``CC`` findings together.

Everything is duck-typed (plans, schemas, registries, dataflows),
matching the plan validator's contract: tests can feed hand-built
stand-ins, and this module never imports :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.cost import model as cost
from repro.analysis.cost.model import CardinalityEstimate, CostContext
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.typecheck import signatures as schema
from repro.analysis.typecheck.signatures import CheckContext

__all__ = [
    "Operator",
    "OPERATORS",
    "PlanWalk",
    "pipeline_shape",
    "walk_plan",
]


def _no_findings(ctx: Any, sub: str | None, value: Any) -> list[Diagnostic]:
    return []


def _no_schema(ctx: CheckContext, sub: str | None, input_schema: Any) -> Any:
    return None


@dataclass(frozen=True)
class Operator:
    """One dataflow node kind's static contract.

    ``check`` returns the ``TC`` diagnostics for one node of this kind
    and ``infer`` the schema it emits (``None`` when the node carries
    control state rather than a table), both given the schema inferred
    for the node's table-bearing input.  ``estimate`` maps the estimate
    flowing into the node to the one flowing out and ``cost_check``
    returns the ``CC`` diagnostics for that outgoing estimate; a kind
    without an ``estimate`` has a schema half only, and the walk reports
    it as ``CC009``.
    """

    kind: str
    stage: str
    check: Callable[
        [CheckContext, str | None, Any], list[Diagnostic]
    ] = _no_findings
    infer: Callable[[CheckContext, str | None, Any], Any] = _no_schema
    estimate: Callable[
        [CostContext, str | None, CardinalityEstimate], CardinalityEstimate
    ] | None = None
    cost_check: Callable[
        [CostContext, str | None, CardinalityEstimate], list[Diagnostic]
    ] = _no_findings


#: The table: dataflow node-name prefix -> operator.  Node names are
#: ``kind`` or ``kind:source`` (the wrangler's convention), so dispatch
#: is on the prefix before ``:``.
OPERATORS: Mapping[str, Operator] = {
    operator.kind: operator
    for operator in (
        Operator("probe", "probe", estimate=cost.probe_estimate),
        Operator("plan", "planning", estimate=cost.plan_estimate),
        Operator(
            "acquire", "extraction",
            schema.check_acquire, schema.infer_acquire,
            cost.acquire_estimate, cost.acquire_check,
        ),
        Operator(
            "match", "matching",
            schema.check_match, schema.passthrough, cost.match_estimate,
        ),
        Operator(
            "mapping", "mapping",
            schema.check_mapping, estimate=cost.mapping_estimate,
        ),
        Operator(
            "mapped", "mapping",
            infer=schema.infer_target, estimate=cost.per_cell_estimate,
        ),
        Operator("quality", "quality", estimate=cost.per_cell_estimate),
        Operator("select", "selection", estimate=cost.select_estimate),
        # The selected sources in rank order: control state, estimated
        # like the plan itself.
        Operator("rank", "selection", estimate=cost.plan_estimate),
        Operator(
            "translate", "mapping",
            infer=schema.infer_target, estimate=cost.translate_estimate,
        ),
        # The ER rule duplicate feedback leaves the plan's threshold at:
        # control state, estimated like the plan itself.
        Operator("refit", "resolution", estimate=cost.plan_estimate),
        Operator(
            "resolve", "resolution",
            schema.check_resolve, schema.passthrough,
            cost.resolve_estimate, cost.resolve_check,
        ),
        Operator(
            "fuse", "fusion",
            schema.check_fuse, schema.passthrough, cost.fuse_estimate,
        ),
        Operator(
            "repair", "repair",
            infer=schema.passthrough,
            estimate=cost.repair_estimate, cost_check=cost.repair_check,
        ),
        # An externally set value: no static schema, and no estimate.
        Operator("input", "input"),
    )
}


# -- the shape ------------------------------------------------------------


def pipeline_shape(
    source_names: Sequence[str],
) -> dict[str, tuple[str, ...]]:
    """Figure 1's wiring over ``source_names``: ``{node: dependencies}``.

    The one declaration of the pipeline's shape.  ``Wrangler`` composes
    its dataflow by adding these nodes in this (insertion, and already
    topological) order, binding each node's kind to its stage body and
    its :data:`OPERATORS` row.  A new stage is one entry here, one
    ``Operator`` row and one stage body.
    """
    dependencies: dict[str, tuple[str, ...]] = {
        "probe": (),
        "plan": ("probe",),
    }
    for name in source_names:
        dependencies[f"acquire:{name}"] = ("plan",)
        dependencies[f"match:{name}"] = (f"acquire:{name}", "plan")
        dependencies[f"mapping:{name}"] = (
            f"match:{name}",
            f"acquire:{name}",
        )
        dependencies[f"mapped:{name}"] = (
            f"mapping:{name}",
            f"acquire:{name}",
        )
        dependencies[f"quality:{name}"] = (f"mapped:{name}",)
    dependencies["select"] = (
        "plan",
        *(f"mapping:{name}" for name in source_names),
        *(f"quality:{name}" for name in source_names),
    )
    dependencies["rank"] = ("select",)
    dependencies["translate"] = (
        "rank",
        *(f"mapped:{name}" for name in source_names),
    )
    dependencies["refit"] = ("translate", "plan")
    dependencies["resolve"] = ("translate", "plan", "refit")
    dependencies["fuse"] = ("resolve", "plan", "rank")
    dependencies["repair"] = ("fuse", "plan")
    return dependencies


# -- the walk -------------------------------------------------------------


@dataclass
class PlanWalk:
    """What one pass over the topology produced, in walk order."""

    type_findings: list[Diagnostic] = field(default_factory=list)
    cost_findings: list[Diagnostic] = field(default_factory=list)
    estimates: dict[str, CardinalityEstimate] = field(default_factory=dict)
    stages: dict[str, str | None] = field(default_factory=dict)


def walk_plan(
    dataflow: Any,
    types: CheckContext,
    costs: CostContext | None = None,
) -> PlanWalk:
    """Visit every node of ``dataflow`` once, in its topological order.

    The schema half (``TC001``–``TC009``) always runs; ``costs``
    switches on the cost half (per-node estimates, ``CC001``, ``CC004``,
    ``CC008``, ``CC009``); the plan-level budget rule (``CC006``) is the
    certifier's.
    """
    dependencies = dataflow.dependency_map()
    walk = PlanWalk()
    schemas: dict[str, Any] = {}
    for name in dataflow.nodes():
        kind, _, suffix = name.partition(":")
        operator = OPERATORS.get(kind)
        sub = suffix or None
        inputs = dependencies[name]
        input_schema = _first_input_schema(inputs, schemas)
        if operator is None:
            schemas[name] = input_schema
        else:
            walk.type_findings.extend(
                operator.check(types, sub, input_schema)
            )
            schemas[name] = operator.infer(types, sub, input_schema)
        if costs is None:
            continue
        incoming = _first_input_estimate(inputs, walk.estimates)
        if operator is None or operator.estimate is None:
            walk.cost_findings.append(
                cost.cc(
                    "CC009",
                    "dataflow",
                    name,
                    f"node kind {kind!r} has no cost signature; the "
                    f"estimate cannot propagate through {name!r}",
                    "give the kind's Operator row an estimate, or "
                    "accept assumed downstream cardinalities",
                )
            )
            walk.estimates[name] = CardinalityEstimate(
                rows=incoming.rows, confidence="assumed"
            )
            walk.stages[name] = None
            continue
        outgoing = operator.estimate(costs, sub, incoming)
        walk.cost_findings.extend(operator.cost_check(costs, sub, outgoing))
        walk.estimates[name] = outgoing
        walk.stages[name] = operator.stage
    return walk


def _first_input_schema(
    inputs: Sequence[str], schemas: Mapping[str, Any]
) -> Any:
    """The schema flowing into a node: its first dependency that
    inferred one (the wrangler wires exactly one table-bearing edge per
    node)."""
    for dep in inputs:
        found = schemas.get(dep)
        if found is not None:
            return found
    return None


def _first_input_estimate(
    inputs: Sequence[str], estimates: Mapping[str, CardinalityEstimate]
) -> CardinalityEstimate:
    """The estimate flowing into a node: its first dependency that
    carries rows, else its first estimated dependency at all."""
    first: CardinalityEstimate | None = None
    for dep in inputs:
        estimate = estimates.get(dep)
        if estimate is None:
            continue
        if first is None:
            first = estimate
        if estimate.rows > 0:
            return estimate
    return first or CardinalityEstimate()
