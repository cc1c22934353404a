"""The type rules: the ``TC`` catalogue and its checks.

Each rule names one defect a user can write that leaves a column of the
wrangled table unfed or misread: a source whose probe failed, a
``date_attribute`` no mapping feeds or that is not a DATE, a required
target attribute no selected source provides.  The checks read the plan,
the target schema and the probe artifacts (each source's sampled schema
and bootstrap mapping) once per plan, from
:func:`~repro.analysis.typecheck.gate.run_preflight`, and emit through
the shared :class:`~repro.analysis.diagnostics.Diagnostic` engine.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Mapping

from repro.analysis.diagnostics import (
    Diagnostic,
    Rule,
    Severity,
    catalogue,
    finding,
)
from repro.model.schema import DataType

__all__ = ["TYPECHECK_RULES", "check_types"]

#: Rule catalogue for the typechecker (mirrored in docs/ANALYSIS.md).
TYPECHECK_RULES: Mapping[str, Rule] = catalogue(
    Rule(
        "TC001",
        "source-schema-unknown",
        Severity.WARNING,
        "A plan-selected source has no statically inferable schema (its "
        "probe failed or never ran): downstream checks for that source "
        "are suppressed rather than guessed.",
    ),
    Rule(
        "TC007",
        "fusion-attribute-unproduced",
        Severity.WARNING,
        "Recency fusion is keyed on a date attribute that no upstream "
        "mapping of any selected source produces: every claim ties at "
        "default recency.",
    ),
    Rule(
        "TC008",
        "fusion-strategy-unsatisfiable",
        Severity.ERROR,
        "Recency fusion is keyed on a non-DATE attribute.",
    ),
    Rule(
        "TC009",
        "required-attribute-unproduced",
        Severity.WARNING,
        "A required target attribute is produced by no mapping of any "
        "selected source: the wrangled column will be entirely missing.",
    ),
)

#: A ``TC`` diagnostic with the catalogue severity.
tc = partial(finding, TYPECHECK_RULES)


def _produced(
    planned: list[str],
    target: Any,
    schemas: Mapping[str, Any],
    mappings: Mapping[str, Any],
) -> set[str] | None:
    """The target attributes some planned source's probe mapping feeds;
    ``None`` unless every planned source has a probe schema and mapping
    (a partial picture yields silence, not speculation)."""
    produced: set[str] = set()
    for name in planned:
        schema, mapping = schemas.get(name), mappings.get(name)
        if schema is None or mapping is None:
            return None
        produced.update(
            m.target for m in mapping.attribute_maps
            if m.source in schema and m.target in target
        )
    return produced if planned else None


def check_types(
    plan: Any,
    user: Any,
    sources: list[str],
    schemas: Mapping[str, Any],
    mappings: Mapping[str, Any],
    date_attribute: str | None,
) -> list[Diagnostic]:
    """The ``TC`` findings for one plan; ``sources`` are the registered
    source names, in registration order."""
    target = user.target_schema
    findings = [
        tc(
            "TC001",
            "extraction",
            name,
            f"selected source {name!r} has no statically inferable schema: "
            "type checks for its mapping chain are suppressed",
            "probe the source (or pass its schema) before type checking",
        )
        for name in sources
        if name in plan.sources and name not in schemas
    ]
    produced = _produced(plan.sources, target, schemas, mappings)
    keyed = (
        plan.fusion_strategy == "recent"
        and date_attribute is not None
        and date_attribute in target
    )
    if keyed and produced is not None and date_attribute not in produced:
        findings.append(
            tc(
                "TC007",
                "fusion",
                f"date_attribute.{date_attribute}",
                f"recency attribute {date_attribute!r} is produced by no "
                "mapping of any selected source: every claim ties at "
                "default recency",
                "map a source date column or drop date_attribute",
            )
        )
    if keyed and target[date_attribute].dtype is not DataType.DATE:
        findings.append(
            tc(
                "TC008",
                "fusion",
                f"date_attribute.{date_attribute}",
                f"recency fusion keyed on {date_attribute!r} "
                f"({target[date_attribute].dtype.value}): recency needs a "
                "DATE attribute",
                "key recency on a DATE column",
            )
        )
    if produced is not None:
        findings.extend(
            tc(
                "TC009",
                "fusion",
                attribute.name,
                f"required attribute {attribute.name!r} is produced by no "
                "mapping of any selected source: the wrangled column will "
                "be entirely missing",
                "add a source covering it or relax the requirement",
            )
            for attribute in target
            if attribute.required
            and not attribute.name.startswith("_")
            and attribute.name not in produced
        )
    return findings
