"""The cost model: cardinality estimates and the per-operator cost halves.

The static mirror of the runtime's cost accounting.  A
:class:`CardinalityEstimate` carries three numbers through the dataflow
topology — estimated **rows** flowing out of a node, abstract **work**
units the node performs (row scans, attribute-pair scores, candidate-
pair comparisons, cell fusions), and **access cost** spent at the node in
the same ``cost_per_access`` units as
:class:`~repro.sources.base.SourceMetadata` and the user context's
budget.  Each dataflow node kind the wrangler composes gets an
``*_estimate`` function declaring — *without executing anything* — how it
transforms an incoming estimate (and, where a ``CC`` rule guards the
kind, a ``*_check``); :data:`repro.analysis.typecheck.operators.OPERATORS`
gives each its own row.

Work units convert to predicted compute-seconds through per-stage
:data:`UNIT_COSTS`, order-of-magnitude constants pinned by the committed
plan→cost snapshot.

Everything is duck-typed like the plan validator: the estimators read
declared structure (plans, registries, user contexts) and never touch
live data — probing is the caller's business.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Mapping

from repro.analysis.diagnostics import Diagnostic, finding
from repro.analysis.cost.rules import COST_RULES
from repro.resolution.blocking import MAX_BLOCK_SIZE
from repro.resolution.er import SMALL_TABLE_CUTOFF

__all__ = [
    "CardinalityEstimate",
    "CostContext",
    "SourceFacts",
    "UNIT_COSTS",
    "cc",
    "estimated_pairs",
    "source_facts",
    # the per-kind cost halves the operator table joins
    "acquire_check",
    "acquire_estimate",
    "fuse_estimate",
    "mapping_estimate",
    "match_estimate",
    "per_cell_estimate",
    "plan_estimate",
    "probe_estimate",
    "repair_check",
    "repair_estimate",
    "resolve_check",
    "resolve_estimate",
    "select_estimate",
    "translate_estimate",
]

# -- tunable thresholds (documented in docs/ANALYSIS.md) ------------------

#: Rows assumed for a source with no size hint (the probe sample size).
DEFAULT_ROWS = 25.0
#: Target-schema width assumed when no schema is available.
DEFAULT_WIDTH = 8.0
#: Fields the resolver compares per candidate pair when the plan does
#: not pin ``er_attributes``.
DEFAULT_ER_FIELDS = 3.0
#: Candidate pairs above which a pooled resolve (CC004) warns.
PAIR_WARNING_LIMIT = 50_000.0
#: Sources pooled into one resolve before CC004 considers it a
#: cross-source join.
CROSS_SOURCE_MIN = 4
#: rows x width^2 above which FD discovery dominates repair (CC008).
FD_WORK_LIMIT = 1_000_000.0

#: Default seconds per work unit, per pipeline stage — order-of-magnitude
#: fits from the committed telemetry snapshots (the resolution figure is
#: the ROADMAP wall: ~43.5s for ~3.2e5 pairs x 1 field).
UNIT_COSTS: Mapping[str, float] = {
    "probe": 2e-4,
    "planning": 1e-4,
    "extraction": 2e-5,
    "matching": 1e-4,
    "mapping": 1e-5,
    "quality": 2e-5,
    "selection": 1e-4,
    "resolution": 1.5e-4,
    "fusion": 2e-5,
    "repair": 1e-5,
}


#: A ``CC`` diagnostic with the catalogue severity (overridable).
cc = partial(finding, COST_RULES)


@dataclass(frozen=True)
class CardinalityEstimate:
    """What one node is statically expected to cost.

    ``rows`` is the estimated table cardinality flowing *out* of the
    node; ``work`` the abstract operation count the node performs;
    ``access_cost`` the source-access cost charged at the node (in
    ``cost_per_access`` units, the budget's currency).  ``confidence``
    records the weakest assumption the estimate rests on: ``"exact"``
    (a published size hint), ``"probed"`` (derived from exact inputs
    through a modelled operator), or ``"assumed"`` (a default filled in
    where no cardinality was available).
    """

    rows: float = 0.0
    work: float = 0.0
    access_cost: float = 0.0
    confidence: str = "probed"
    detail: str = ""

    def seconds(self, stage: str | None) -> float:
        """Predicted compute-seconds under the stage's unit cost."""
        return self.work * UNIT_COSTS.get(stage or "", 1e-5)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "rows": round(self.rows, 2),
            "work": round(self.work, 2),
            "access_cost": round(self.access_cost, 4),
            "confidence": self.confidence,
        }
        if self.detail:
            payload["detail"] = self.detail
        return payload


_WORST = {"exact": 0, "probed": 1, "assumed": 2}


def _weakest(*confidences: str) -> str:
    return max(confidences, key=lambda c: _WORST.get(c, 2))


@dataclass(frozen=True)
class SourceFacts:
    """What the certifier statically knows about one registered source."""

    name: str
    rows: float | None  # size hint; None when the source publishes none
    cost_per_access: float = 1.0


def _peek_rows(source: Any) -> float | None:
    """The memoised row count, without ever triggering a load.

    A cold :meth:`~repro.sources.base.StructuredSource.size_hint` loads
    the source to learn its size — an *access* the static pass must not
    cause (it would bypass the resilience ledger and charge nothing).
    So the peek walks the source (and any resilience ``inner`` chain)
    for the memoised ``_size_hint`` left by a fetch/probe; only a
    duck-typed stand-in carrying no such slot at any level gets its
    ``size_hint()`` called, since publishing a count statically is
    exactly what such a double is for.
    """
    seen: set[int] = set()
    current, saw_slot = source, False
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if hasattr(current, "_size_hint"):
            saw_slot = True
            hint = current._size_hint
            if hint is not None:
                return float(hint)
        current = getattr(current, "inner", None)
    if saw_slot:
        return None  # a real source, not yet probed: unknown, don't load
    hint = getattr(source, "size_hint", None)
    if callable(hint):
        try:
            return float(hint())
        # Duck-typed stand-ins may refuse arbitrarily; degrade to an
        # assumed cardinality instead of failing the static pass.
        except Exception:  # repro: noqa[REP002]
            return None
    return None


def source_facts(registry: Any) -> dict[str, SourceFacts]:
    """Duck-typed extraction of :class:`SourceFacts` from a registry.

    Row hints come from the size hint memoised by each source's last
    fetch/probe (so they are free — and real — after the preflight
    probe, and ``None`` before it); document sources publish none and
    degrade to ``None``.
    """
    facts: dict[str, SourceFacts] = {}
    for name in registry.names():
        source = registry.get(name)
        metadata = getattr(source, "metadata", None)
        cost = float(getattr(metadata, "cost_per_access", 1.0) or 0.0)
        facts[name] = SourceFacts(name, _peek_rows(source), cost)
    return facts


def estimated_pairs(rows: float) -> tuple[float, bool]:
    """(estimated candidate pairs, whether the full-pairs path is taken).

    Mirrors the resolver ``Wrangler._stage_resolve`` builds — an
    :class:`~repro.resolution.er.EntityResolver` on its defaults: every
    pair at or below ``SMALL_TABLE_CUTOFF`` rows, token blocking above
    it.  An upper bound, not an expectation: token blocking can emit at
    most ``rows x (MAX_BLOCK_SIZE - 1) / 2`` pairs (every row in a full
    block), and a table no larger than one block is all pairs.
    """
    full = rows * max(rows - 1.0, 0.0) / 2.0
    if rows <= SMALL_TABLE_CUTOFF or rows <= MAX_BLOCK_SIZE:
        return full, True
    return min(full, rows * (MAX_BLOCK_SIZE - 1.0) / 2.0), False


@dataclass
class CostContext:
    """Everything a cost signature may consult while estimating one plan."""

    plan: Any = None
    user: Any = None
    sources: Mapping[str, SourceFacts] = field(default_factory=dict)
    discover_constraints: bool = False

    @property
    def planned_sources(self) -> tuple[str, ...]:
        return tuple(getattr(self.plan, "sources", ()) or ())

    @property
    def target_width(self) -> float:
        schema = getattr(self.user, "target_schema", None)
        try:
            width = float(len(schema)) if schema is not None else 0.0
        except TypeError:
            width = 0.0
        return width or DEFAULT_WIDTH

    @property
    def er_fields(self) -> float:
        attributes = tuple(getattr(self.plan, "er_attributes", ()) or ())
        return float(len(attributes)) or DEFAULT_ER_FIELDS

    @property
    def user_budget(self) -> float:
        return float(getattr(self.user, "budget", float("inf")) or 0.0)

    def source_rows(self, name: str) -> tuple[float, str]:
        """(estimated rows, confidence) for one registered source."""
        facts = self.sources.get(name)
        if facts is None or facts.rows is None:
            return DEFAULT_ROWS, "assumed"
        return facts.rows, "exact"


# -- per-kind estimators --------------------------------------------------


def probe_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    # Every registered source is sampled at PROBE_COST_FRACTION,
    # selected or not — the fixed overhead of informed selection.
    from repro.sources.base import PROBE_COST_FRACTION

    cost = sum(f.cost_per_access for f in ctx.sources.values())
    sampled = sum(
        min(f.rows if f.rows is not None else DEFAULT_ROWS, DEFAULT_ROWS)
        for f in ctx.sources.values()
    )
    return CardinalityEstimate(
        rows=0.0,
        work=sampled,
        access_cost=cost * PROBE_COST_FRACTION,
        confidence="exact",
        detail=f"{len(ctx.sources)} sources sampled",
    )


def plan_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    return CardinalityEstimate(rows=0.0, work=1.0, confidence="exact")


def acquire_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    if sub is None or sub not in ctx.planned_sources:
        return CardinalityEstimate(rows=0.0, confidence="exact",
                                   detail="not selected")
    rows, confidence = ctx.source_rows(sub)
    facts = ctx.sources.get(sub)
    cost = facts.cost_per_access if facts is not None else 1.0
    return CardinalityEstimate(
        rows=rows, work=rows, access_cost=cost, confidence=confidence
    )


def acquire_check(
    ctx: CostContext, sub: str | None, estimate: CardinalityEstimate
) -> list[Diagnostic]:
    if sub is None or sub not in ctx.planned_sources:
        return []
    if estimate.confidence != "assumed":
        return []
    return [
        cc(
            "CC001",
            "dataflow",
            f"acquire:{sub}",
            f"source {sub!r} advertises no row count; estimates assume "
            f"{DEFAULT_ROWS:.0f} rows from here on",
            "probe the source before the gate, or publish a size hint",
        )
    ]


def match_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    width = ctx.target_width
    return replace(
        incoming,
        work=width * width,
        access_cost=0.0,
        detail="attribute-pair scoring",
    )


def per_cell_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    return replace(
        incoming,
        work=incoming.rows * ctx.target_width,
        access_cost=0.0,
        detail="",
    )


def mapping_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    return replace(incoming, work=ctx.target_width, access_cost=0.0)


def select_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    return CardinalityEstimate(
        rows=incoming.rows,
        work=float(len(ctx.planned_sources)),
        confidence=incoming.confidence,
    )


def translate_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    # The union of every selected source's mapped rows; scope filtering
    # can only shrink it, so this is an upper bound.
    total = 0.0
    confidence = "exact"
    for name in ctx.planned_sources:
        rows, source_confidence = ctx.source_rows(name)
        total += rows
        confidence = _weakest(confidence, source_confidence)
    return CardinalityEstimate(
        rows=total, work=total, confidence=confidence,
        detail=f"union of {len(ctx.planned_sources)} sources",
    )


def resolve_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    pairs, full = estimated_pairs(incoming.rows)
    label = "full pairs" if full else "token"
    return CardinalityEstimate(
        rows=incoming.rows,
        work=pairs * ctx.er_fields,
        confidence=incoming.confidence,
        detail=f"{pairs:.0f} candidate pairs ({label})",
    )


def resolve_check(
    ctx: CostContext, sub: str | None, estimate: CardinalityEstimate
) -> list[Diagnostic]:
    rows = estimate.rows
    pairs, _ = estimated_pairs(rows)
    pooled = len(ctx.planned_sources)
    if pooled < CROSS_SOURCE_MIN or pairs <= PAIR_WARNING_LIMIT:
        return []
    return [
        cc(
            "CC004",
            "dataflow",
            "resolve" if sub is None else f"resolve:{sub}",
            f"{pooled} sources pool ~{rows:.0f} rows into one "
            f"resolve (~{pairs:.0f} candidate pairs): cross-source "
            f"pair growth is quadratic in the union",
            "resolve per source or per blocking key "
            "(scale.partitioned_resolve) and merge clusters",
        )
    ]


def fuse_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    # Fusion touches every claim of every cluster: rows x width cells.
    # Output cardinality shrinks toward distinct entities; with k
    # overlapping sources the duplication factor is at most k.
    k = max(len(ctx.planned_sources), 1)
    return CardinalityEstimate(
        rows=incoming.rows / k,
        work=incoming.rows * ctx.target_width,
        confidence=incoming.confidence,
        detail=f"duplication factor <= {k}",
    )


def repair_estimate(
    ctx: CostContext, sub: str | None, incoming: CardinalityEstimate
) -> CardinalityEstimate:
    width = ctx.target_width
    work = incoming.rows * width
    if ctx.discover_constraints:
        work += incoming.rows * width * width
    return replace(incoming, rows=incoming.rows, work=work, access_cost=0.0)


def repair_check(
    ctx: CostContext, sub: str | None, estimate: CardinalityEstimate
) -> list[Diagnostic]:
    if not ctx.discover_constraints:
        return []
    width = ctx.target_width
    discovery_work = estimate.rows * width * width
    if discovery_work <= FD_WORK_LIMIT:
        return []
    return [
        cc(
            "CC008",
            "dataflow",
            "repair",
            f"constraint discovery over ~{estimate.rows:.0f} fused rows "
            f"x {width:.0f}^2 candidate dependencies "
            f"(~{discovery_work:.0f} work units) dominates repair",
            "mine constraints offline on a sample, or disable "
            "discover_constraints for this plan",
        )
    ]
