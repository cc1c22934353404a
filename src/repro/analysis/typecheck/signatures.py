"""The schema halves of the operator table: what each pipeline stage
consumes and produces, schema-wise.

Every dataflow node kind the wrangler composes (``acquire``, ``match``,
``mapping``, ``mapped``, ``translate``, ``resolve``, ``fuse``, ...) gets
a ``check_*`` function returning the ``TC`` diagnostics for one node of
the kind and an ``infer`` function returning the schema the node emits
(``None`` when it carries control state rather than a table) — both
*without executing anything*.  Each receives the context, the node's
qualifying suffix (the source name for per-source nodes), and the schema
inferred for the node's table-bearing input.
:data:`repro.analysis.typecheck.operators.OPERATORS` joins them with the
cost halves of :mod:`repro.analysis.cost.model` into one row per kind,
and the walk there threads inferred schemas stage to stage.

The halves are duck-typed like the plan validator: they read declared
structure (plans, schemas, probe mappings) and never touch live data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from repro.analysis.diagnostics import Diagnostic, Severity, finding
from repro.analysis.typecheck.rules import TYPECHECK_RULES
from repro.fusion.strategies import STRATEGY_VALUE_DOMAINS
from repro.model.schema import Coercibility, DataType, static_coercibility
from repro.resolution.comparison import TRANSIENT_DTYPES

__all__ = [
    "CheckContext",
    "tc",
    # the per-kind schema halves the operator table joins
    "check_acquire",
    "check_fuse",
    "check_mapping",
    "check_match",
    "check_resolve",
    "infer_acquire",
    "infer_target",
    "passthrough",
]


#: A ``TC`` diagnostic with the catalogue severity (overridable).
tc = partial(finding, TYPECHECK_RULES)


@dataclass
class CheckContext:
    """Everything a signature may consult while checking one plan.

    ``source_schemas`` and ``mappings`` are the probe artifacts (keyed by
    source name); ``produced`` is the set of target attributes at least
    one selected source's mapping populates, and ``coverage_complete``
    records whether *every* selected source contributed a mapping — the
    produced-attribute rules (TC007/TC009) only fire when it did, so a
    missing probe degrades to silence, never to a false alarm.
    """

    plan: Any = None
    target_schema: Any = None
    source_schemas: Mapping[str, Any] = field(default_factory=dict)
    mappings: Mapping[str, Any] = field(default_factory=dict)
    date_attribute: str | None = None
    produced: frozenset[str] = frozenset()
    coverage_complete: bool = False

    @property
    def planned_sources(self) -> tuple[str, ...]:
        return tuple(getattr(self.plan, "sources", ()) or ())

    def target_dtype(self, name: str) -> DataType | None:
        schema = self.target_schema
        attribute = schema.get(name) if schema is not None else None
        return attribute.dtype if attribute is not None else None


# -- per-kind checks ------------------------------------------------------


def check_acquire(
    ctx: CheckContext, sub: str | None, input_schema: Any
) -> list[Diagnostic]:
    if sub is None or sub not in ctx.planned_sources:
        return []
    if sub in ctx.source_schemas:
        return []
    return [
        tc(
            "TC001",
            "extraction",
            sub,
            f"selected source {sub!r} has no statically inferable schema: "
            "type checks for its mapping chain are suppressed",
            "probe the source (or pass its schema) before type checking",
        )
    ]


def infer_acquire(
    ctx: CheckContext, sub: str | None, input_schema: Any
) -> Any:
    return ctx.source_schemas.get(sub) if sub is not None else None


def check_match(
    ctx: CheckContext, sub: str | None, input_schema: Any
) -> list[Diagnostic]:
    """TC003: matched attribute pairs whose DataTypes can never coerce."""
    mapping = ctx.mappings.get(sub) if sub is not None else None
    schema = input_schema if input_schema is not None else (
        ctx.source_schemas.get(sub) if sub is not None else None
    )
    if mapping is None or schema is None or ctx.target_schema is None:
        return []
    findings = []
    for attribute_map in getattr(mapping, "attribute_maps", ()):
        source_attr = schema.get(attribute_map.source)
        target_attr = ctx.target_schema.get(attribute_map.target)
        if source_attr is None or target_attr is None:
            continue  # TC002's business at the mapping node
        if getattr(attribute_map, "transform", None) is not None:
            continue  # the transform rewrites the type: TC004's business
        verdict = static_coercibility(source_attr.dtype, target_attr.dtype)
        if verdict is Coercibility.NEVER:
            findings.append(
                tc(
                    "TC003",
                    "matching",
                    f"{sub}.{attribute_map.source}->{attribute_map.target}",
                    f"matched {sub}.{attribute_map.source} "
                    f"({source_attr.dtype.value}) to "
                    f"{attribute_map.target} ({target_attr.dtype.value}): "
                    "these DataTypes never coerce, every mapped value "
                    "would fail type inference",
                    "drop the correspondence or add a converting transform",
                )
            )
    return findings


def check_mapping(
    ctx: CheckContext, sub: str | None, input_schema: Any
) -> list[Diagnostic]:
    """TC002 (reads missing attribute) and TC004 (transform types)."""
    mapping = ctx.mappings.get(sub) if sub is not None else None
    schema = input_schema if input_schema is not None else (
        ctx.source_schemas.get(sub) if sub is not None else None
    )
    if mapping is None:
        return []
    findings = []
    for attribute_map in getattr(mapping, "attribute_maps", ()):
        source_dtype: DataType | None = None
        if schema is not None:
            source_attr = schema.get(attribute_map.source)
            if source_attr is None:
                findings.append(
                    tc(
                        "TC002",
                        "mapping",
                        f"{sub}.{attribute_map.source}",
                        f"mapping for {sub!r} reads attribute "
                        f"{attribute_map.source!r} absent from the inferred "
                        f"source schema "
                        f"(has: {sorted(schema.names)}); the mapped "
                        f"{attribute_map.target!r} column would be "
                        "all-missing",
                        "re-match the source or fix the attribute name",
                    )
                )
                continue
            source_dtype = source_attr.dtype
        findings.extend(
            _check_transform(ctx, sub, attribute_map, source_dtype)
        )
    return findings


def _check_transform(
    ctx: CheckContext,
    sub: str | None,
    attribute_map: Any,
    source_dtype: DataType | None,
) -> list[Diagnostic]:
    transform = getattr(attribute_map, "transform", None)
    if transform is None:
        return []
    name = getattr(transform, "name", None) or getattr(
        transform, "__name__", "transform"
    )
    node = f"{sub}.{attribute_map.source}->{attribute_map.target}"
    findings = []
    input_dtypes = getattr(transform, "input_dtypes", None)
    if (
        source_dtype is not None
        and input_dtypes is not None
        and source_dtype not in input_dtypes
    ):
        findings.append(
            tc(
                "TC004",
                "mapping",
                node,
                f"transform {name!r} applied to "
                f"{sub}.{attribute_map.source} ({source_dtype.value}) but "
                "its declared input domain is "
                f"{sorted(d.value for d in input_dtypes)}",
                "pick a transform whose domain covers the source type",
            )
        )
    output_dtype = getattr(transform, "output_dtype", None)
    target_dtype = ctx.target_dtype(attribute_map.target)
    if (
        output_dtype is not None
        and target_dtype is not None
        and static_coercibility(output_dtype, target_dtype)
        is Coercibility.NEVER
    ):
        findings.append(
            tc(
                "TC004",
                "mapping",
                node,
                f"transform {name!r} produces {output_dtype.value} values "
                f"but target {attribute_map.target!r} needs "
                f"{target_dtype.value}, which they never coerce to",
                "use a transform producing the target's type",
            )
        )
    return findings


def infer_target(ctx: CheckContext, sub: str | None, input_schema: Any) -> Any:
    return ctx.target_schema


def passthrough(ctx: CheckContext, sub: str | None, input_schema: Any) -> Any:
    return input_schema


def check_resolve(
    ctx: CheckContext, sub: str | None, input_schema: Any
) -> list[Diagnostic]:
    """TC005/TC006: ER comparison keys against the resolved schema."""
    schema = input_schema if input_schema is not None else ctx.target_schema
    if schema is None:
        return []
    findings = []
    for name in getattr(ctx.plan, "er_attributes", ()) or ():
        attribute = schema.get(name)
        if attribute is None:
            findings.append(
                tc(
                    "TC005",
                    "resolution",
                    name,
                    f"ER comparison keyed on attribute {name!r} absent from "
                    f"the resolved schema (has: {sorted(schema.names)})",
                    "key comparisons on attributes the translation emits",
                )
            )
        elif attribute.dtype in TRANSIENT_DTYPES:
            findings.append(
                tc(
                    "TC006",
                    "resolution",
                    name,
                    f"ER comparison keyed on transient attribute {name!r} "
                    f"({attribute.dtype.value}): URL/DATE/CURRENCY values "
                    "name the observation, not the entity",
                    "exclude transient attributes from identity evidence",
                )
            )
    return findings


def check_fuse(
    ctx: CheckContext, sub: str | None, input_schema: Any
) -> list[Diagnostic]:
    """TC007/TC008/TC009: fusion configuration against produced attrs."""
    schema = input_schema if input_schema is not None else ctx.target_schema
    findings = []
    overrides = dict(getattr(ctx.plan, "fusion_overrides", None) or {})
    if ctx.coverage_complete:
        for attribute in sorted(overrides):
            if (
                schema is not None
                and attribute in schema
                and attribute not in ctx.produced
            ):
                findings.append(
                    tc(
                        "TC007",
                        "fusion",
                        f"fusion_overrides.{attribute}",
                        f"fusion override for {attribute!r} can never take "
                        "effect: no mapping of any selected source produces "
                        "that attribute",
                        "drop the override or re-match the sources",
                    )
                )
        recency_in_play = (
            getattr(ctx.plan, "fusion_strategy", None) == "recent"
            or "recent" in overrides.values()
        )
        if (
            recency_in_play
            and ctx.date_attribute is not None
            and schema is not None
            and ctx.date_attribute in schema
            and ctx.date_attribute not in ctx.produced
        ):
            # Warning, not error: recency fusion degrades to default
            # recency (every claim ties) rather than breaking.
            findings.append(
                tc(
                    "TC007",
                    "fusion",
                    f"date_attribute.{ctx.date_attribute}",
                    f"recency attribute {ctx.date_attribute!r} is produced "
                    "by no mapping of any selected source: every claim ties "
                    "at default recency",
                    "map a source date column or drop date_attribute",
                    severity=Severity.WARNING,
                )
            )
    strategy = getattr(ctx.plan, "fusion_strategy", None)
    domain = STRATEGY_VALUE_DOMAINS.get(strategy) if strategy else None
    if domain is not None and schema is not None:
        in_scope = [
            a.name
            for a in schema
            if not a.name.startswith("_")
            and a.name not in overrides
            and a.dtype in domain
        ]
        if not in_scope:
            findings.append(
                tc(
                    "TC008",
                    "fusion",
                    "fusion_strategy",
                    f"default strategy {strategy!r} requires "
                    f"{sorted(d.value for d in domain)} values but no "
                    "non-overridden target attribute has such a type",
                    "pick a type-agnostic default strategy",
                )
            )
    if strategy == "recent" and ctx.date_attribute is not None:
        dtype = ctx.target_dtype(ctx.date_attribute)
        if dtype is not None and dtype is not DataType.DATE:
            findings.append(
                tc(
                    "TC008",
                    "fusion",
                    f"date_attribute.{ctx.date_attribute}",
                    f"recency fusion keyed on {ctx.date_attribute!r} "
                    f"({dtype.value}): recency needs a DATE attribute",
                    "key recency on a DATE column",
                )
            )
    if ctx.coverage_complete and ctx.target_schema is not None:
        for attribute in ctx.target_schema:
            if (
                attribute.required
                and not attribute.name.startswith("_")
                and attribute.name not in ctx.produced
            ):
                findings.append(
                    tc(
                        "TC009",
                        "fusion",
                        attribute.name,
                        f"required attribute {attribute.name!r} is produced "
                        "by no mapping of any selected source: the wrangled "
                        "column will be entirely missing",
                        "add a source covering it or relax the requirement",
                    )
                )
    return findings
