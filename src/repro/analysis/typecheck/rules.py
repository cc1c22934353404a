"""The schema-flow type rules: the ``TC`` catalogue.

Each rule names one class of composition defect the type checker can
prove statically — a data shape flowing between pipeline stages that the
receiving stage cannot interpret.  The schema halves in
:mod:`repro.analysis.typecheck.signatures` emit them through the shared
:class:`~repro.analysis.diagnostics.Diagnostic` engine, so validator,
linter, and typechecker findings render uniformly.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.diagnostics import Rule, Severity, catalogue

__all__ = ["TYPECHECK_RULES"]

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
        "TC002",
        "mapping-reads-missing-attribute",
        Severity.ERROR,
        "A mapping reads a source attribute absent from the inferred "
        "input schema: the mapped column would be all-missing.",
    ),
    Rule(
        "TC003",
        "matched-types-never-coercible",
        Severity.ERROR,
        "Matched attributes have DataTypes that can never coerce "
        "(e.g. BOOLEAN into INTEGER): every mapped value is a guaranteed "
        "TypeInferenceError at runtime.",
    ),
    Rule(
        "TC004",
        "transform-type-mismatch",
        Severity.ERROR,
        "A mapping transform is applied to a DataType outside its "
        "declared input domain, or produces a DataType that can never "
        "coerce to the target attribute's type.",
    ),
    Rule(
        "TC005",
        "er-attribute-missing",
        Severity.ERROR,
        "An entity-resolution comparison is keyed on an attribute absent "
        "from the resolved (translated) schema.",
    ),
    Rule(
        "TC006",
        "er-attribute-type-incompatible",
        Severity.ERROR,
        "An entity-resolution comparison is keyed on a type-incompatible "
        "attribute: a transient type (URL/DATE/CURRENCY) used as identity "
        "evidence.",
    ),
    Rule(
        "TC007",
        "fusion-attribute-unproduced",
        Severity.ERROR,
        "Fusion is configured over an attribute (strategy override or "
        "recency attribute) that no upstream mapping of any selected "
        "source produces: the configuration can never take effect.",
    ),
    Rule(
        "TC008",
        "fusion-strategy-unsatisfiable",
        Severity.ERROR,
        "The fusion strategy's type requirement is unsatisfiable: median "
        "fusion with no numeric-capable attribute in scope, or recency "
        "fusion keyed on a non-DATE attribute.",
    ),
    Rule(
        "TC009",
        "required-attribute-unproduced",
        Severity.WARNING,
        "A required target attribute is produced by no mapping of any "
        "selected source: the wrangled column will be entirely missing.",
    ),
)
