"""Reporters shared by the plan validator and the framework linter.

Two formats: a human text report (one diagnostic per line plus a summary)
and a machine JSON report (what CI consumes).  Reporters are pure
functions from diagnostics to a string — callers own all I/O.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
    sort_diagnostics,
)

__all__ = [
    "render_text",
    "render_json",
    "render",
    "render_rule_catalogue",
]


def render_text(
    diagnostics: Sequence[Diagnostic], checked_files: int = 0
) -> str:
    """The human-readable report: findings then a severity summary."""
    ordered = sort_diagnostics(diagnostics)
    lines = [diagnostic.render() for diagnostic in ordered]
    counts = count_by_severity(ordered)
    summary = ", ".join(
        f"{counts[severity]} {severity.value}"
        for severity in (Severity.ERROR, Severity.WARNING, Severity.INFO)
    )
    scope = f" across {checked_files} files" if checked_files else ""
    if not ordered:
        lines.append(f"clean: no findings{scope}")
    else:
        lines.append(f"found {len(ordered)} ({summary}){scope}")
    return "\n".join(lines)


def render_json(
    diagnostics: Sequence[Diagnostic], checked_files: int = 0
) -> str:
    """The machine-readable report (stable key order, sorted findings)."""
    ordered = sort_diagnostics(diagnostics)
    counts = count_by_severity(ordered)
    payload = {
        "diagnostics": [diagnostic.to_dict() for diagnostic in ordered],
        "summary": {
            "total": len(ordered),
            "errors": counts[Severity.ERROR],
            "warnings": counts[Severity.WARNING],
            "infos": counts[Severity.INFO],
            "checked_files": checked_files,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_FORMATS = {"text": render_text, "json": render_json}


def render(
    diagnostics: Sequence[Diagnostic],
    fmt: str = "text",
    checked_files: int = 0,
) -> str:
    """Render with the named format (``"text"`` or ``"json"``)."""
    if fmt not in _FORMATS:
        raise ValueError(
            f"unknown report format {fmt!r}; expected one of {sorted(_FORMATS)}"
        )
    return _FORMATS[fmt](diagnostics, checked_files=checked_files)


def render_rule_catalogue(
    rules: Mapping[str, Any], name_width: int
) -> str:
    """One ``id  name  severity  description`` line per registered rule."""
    lines = []
    for rule_id in sorted(rules):
        registered = rules[rule_id]
        lines.append(
            f"{rule_id}  {registered.name:<{name_width}} "
            f"{registered.severity.value:<8} {registered.description}"
        )
    return "\n".join(lines)
