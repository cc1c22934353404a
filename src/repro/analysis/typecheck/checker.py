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
consults.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.typecheck.signatures import CheckContext

__all__ = ["check_context"]


def check_context(
    plan: Any,
    user: Any,
    source_schemas: Mapping[str, Any],
    mappings: Mapping[str, Any],
    date_attribute: str | None = None,
) -> CheckContext:
    """What the schema halves may consult while checking one plan.

    ``source_schemas`` maps source name to its probed schema and
    ``mappings`` source name to its probe mapping.
    """
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
        mappings=mappings,
        date_attribute=date_attribute,
        produced=frozenset(produced),
        coverage_complete=coverage_complete,
    )
