"""The operator table and the one walk over a plan's dataflow.

Figure 1 is one pipeline, so it is written down once: every dataflow
node kind the wrangler composes has exactly one :class:`Operator` row in
:data:`OPERATORS` — its pipeline ``stage`` and its cost half
(``estimate`` / ``cost_check`` from :mod:`repro.analysis.cost.model`).
:func:`walk_plan` visits each node of the
:class:`~repro.core.dataflow.Dataflow` the wrangler composed from
:func:`pipeline_shape` (the one declaration of the wiring) once,
threading the :class:`~repro.analysis.cost.model.CardinalityEstimate`
from node to node and collecting the ``CC`` findings.

Everything is duck-typed (plans, registries, dataflows), matching the
plan validator's contract: tests can feed hand-built stand-ins, and this
module never imports :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.cost import model as cost
from repro.analysis.cost.model import CardinalityEstimate, CostContext
from repro.analysis.diagnostics import Diagnostic

__all__ = [
    "Operator",
    "OPERATORS",
    "PlanWalk",
    "pipeline_shape",
    "walk_plan",
]


def _no_findings(
    ctx: CostContext, sub: str | None, estimate: CardinalityEstimate
) -> list[Diagnostic]:
    return []


@dataclass(frozen=True)
class Operator:
    """One dataflow node kind's static contract.

    ``estimate`` maps the estimate flowing into the node to the one
    flowing out and ``cost_check`` returns the ``CC`` diagnostics for
    that outgoing estimate.
    """

    kind: str
    stage: str
    estimate: Callable[
        [CostContext, str | None, CardinalityEstimate], CardinalityEstimate
    ]
    cost_check: Callable[
        [CostContext, str | None, CardinalityEstimate], list[Diagnostic]
    ] = _no_findings


#: The table: dataflow node-name prefix -> operator.  Node names are
#: ``kind`` or ``kind:source`` (the wrangler's convention), so dispatch
#: is on the prefix before ``:``.
OPERATORS: Mapping[str, Operator] = {
    operator.kind: operator
    for operator in (
        Operator("probe", "probe", cost.probe_estimate),
        Operator("plan", "planning", cost.plan_estimate),
        Operator(
            "acquire", "extraction", cost.acquire_estimate, cost.acquire_check
        ),
        Operator("match", "matching", cost.match_estimate),
        Operator("mapping", "mapping", cost.mapping_estimate),
        Operator("mapped", "mapping", cost.per_cell_estimate),
        Operator("quality", "quality", cost.per_cell_estimate),
        Operator("select", "selection", cost.select_estimate),
        # The selected sources in rank order: control state, estimated
        # like the plan itself.
        Operator("rank", "selection", cost.plan_estimate),
        Operator("translate", "mapping", cost.translate_estimate),
        # The ER rule duplicate feedback leaves the plan's threshold at:
        # control state, estimated like the plan itself.
        Operator("refit", "resolution", cost.plan_estimate),
        Operator(
            "resolve", "resolution", cost.resolve_estimate, cost.resolve_check
        ),
        Operator("fuse", "fusion", cost.fuse_estimate),
        Operator(
            "repair", "repair", cost.repair_estimate, cost.repair_check
        ),
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

    cost_findings: list[Diagnostic] = field(default_factory=list)
    estimates: dict[str, CardinalityEstimate] = field(default_factory=dict)
    stages: dict[str, str] = field(default_factory=dict)


def walk_plan(dataflow: Any, costs: CostContext) -> PlanWalk:
    """Visit every node of ``dataflow`` once, in its topological order,
    estimating it and collecting ``CC001``, ``CC004`` and ``CC008``; the
    plan-level budget rule (``CC006``) is the certifier's."""
    dependencies = dataflow.dependency_map()
    walk = PlanWalk()
    for name in dataflow.nodes():
        kind, _, suffix = name.partition(":")
        operator = OPERATORS[kind]
        sub = suffix or None
        incoming = _first_input_estimate(dependencies[name], walk.estimates)
        outgoing = operator.estimate(costs, sub, incoming)
        walk.cost_findings.extend(operator.cost_check(costs, sub, outgoing))
        walk.estimates[name] = outgoing
        walk.stages[name] = operator.stage
    return walk


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
