"""The schema-flow type checker: the schema half of the plan walk.

:func:`~repro.analysis.typecheck.operators.walk_plan` threads statically
inferred :class:`~repro.model.schema.Schema` objects from node to node
of a plan's dataflow topology; each node's
:class:`~repro.analysis.typecheck.operators.Operator` row checks the
boundary and infers the outgoing schema, so a mapping that reads a
column its source never exposes, an ER rule keyed on a transient type,
or a fusion override no mapping can feed all surface as ``TC``
diagnostics *before* any record flows.  This module builds the
:class:`~repro.analysis.typecheck.signatures.CheckContext` that walk
consults and keeps the types-only entry point.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.typecheck.operators import walk_plan
from repro.analysis.typecheck.signatures import CheckContext

__all__ = ["SchemaFlowChecker", "check_context", "check_schema_flow"]


def check_context(
    plan: Any,
    user: Any = None,
    source_schemas: Mapping[str, Any] | None = None,
    mappings: Mapping[str, Any] | Iterable[Any] | None = None,
    date_attribute: str | None = None,
    comparators: Sequence[Any] = (),
) -> CheckContext:
    """What the schema halves may consult while checking one plan.

    ``source_schemas`` maps source name to its probed schema and
    ``mappings`` source name to its probe mapping (an iterable of
    mapping objects is also accepted and keyed by ``source_name``).
    """
    source_schemas = dict(source_schemas or {})
    if mappings is None:
        mappings = {}
    elif not isinstance(mappings, Mapping):
        mappings = {
            getattr(m, "source_name", f"mapping-{i}"): m
            for i, m in enumerate(mappings)
        }
    target_schema = getattr(user, "target_schema", None)
    planned = tuple(getattr(plan, "sources", ()) or ())
    produced: set[str] = set()
    coverage_complete = bool(planned)
    for name in planned:
        mapping = mappings.get(name)
        schema = source_schemas.get(name)
        if mapping is None or schema is None:
            coverage_complete = False
            continue
        for attribute_map in getattr(mapping, "attribute_maps", ()):
            if attribute_map.source not in schema:
                continue
            if (
                target_schema is not None
                and attribute_map.target not in target_schema
            ):
                continue
            produced.add(attribute_map.target)
    return CheckContext(
        plan=plan,
        target_schema=target_schema,
        source_schemas=source_schemas,
        mappings=dict(mappings),
        date_attribute=date_attribute,
        comparators=tuple(comparators),
        produced=frozenset(produced),
        coverage_complete=coverage_complete,
    )


class SchemaFlowChecker:
    """Static schema propagation over a plan's dataflow topology."""

    def check(
        self,
        plan: Any,
        user: Any = None,
        dataflow: Any = None,
        source_schemas: Mapping[str, Any] | None = None,
        mappings: Mapping[str, Any] | Iterable[Any] | None = None,
        date_attribute: str | None = None,
        comparators: Sequence[Any] = (),
    ) -> list[Diagnostic]:
        """All ``TC001``–``TC009`` findings for one plan.

        The probe artifacts are :func:`check_context`'s; ``dataflow``
        supplies the walk order (without one, the wrangler's canonical
        pipeline shape is used).
        """
        context = check_context(
            plan, user, source_schemas, mappings, date_attribute, comparators
        )
        walk = walk_plan(plan, dataflow, types=context)
        return sort_diagnostics(walk.type_findings)


def check_schema_flow(**artifacts: Any) -> list[Diagnostic]:
    """Convenience wrapper: ``SchemaFlowChecker().check(**artifacts)``."""
    return SchemaFlowChecker().check(**artifacts)
