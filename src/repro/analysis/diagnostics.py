"""The shared diagnostics vocabulary of the analysis subsystem.

Every rule family — the gate's ``PV``/``TC``/``CC`` checks and the
framework linter's ``REP`` rules (``tools/lint.py``) — emits the same
currency: a :class:`Diagnostic` carrying a rule id, a severity, a
location, a human-readable message, and (where one exists) a fix hint.
:func:`render_text` renders a collection of them; callers decide policy
from :func:`has_errors`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Severity",
    "Location",
    "Diagnostic",
    "Rule",
    "catalogue",
    "count_by_severity",
    "finding",
    "has_errors",
    "render_text",
    "sort_diagnostics",
]


class Severity(enum.Enum):
    """How bad a finding is — drives exit codes and raise policy.

    ``ERROR`` findings make the tools exit non-zero and make the plan
    validator raise; ``WARNING`` findings are reported but never fatal;
    ``INFO`` findings are advisory style notes.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    For lint findings ``file`` is a path and ``line``/``column`` are
    1-based source coordinates; for plan findings ``file`` names the
    artifact (``"plan"``, ``"dataflow"``, ``"user-context"``, ...) and
    ``node`` the offending element within it.
    """

    file: str
    line: int = 0
    column: int = 0
    node: str = ""

    def render(self) -> str:
        """``file:line:col`` (or ``artifact[node]``) for reports."""
        if self.line:
            return f"{self.file}:{self.line}:{self.column}"
        if self.node:
            return f"{self.file}[{self.node}]"
        return self.file


@dataclass(frozen=True)
class Diagnostic:
    """One finding of any rule family."""

    rule: str
    severity: Severity
    location: Location
    message: str
    fix_hint: str = ""

    def render(self) -> str:
        """The one-line text form used by the text reporter."""
        hint = f" (fix: {self.fix_hint})" if self.fix_hint else ""
        return (
            f"{self.location.render()}: {self.severity.value} "
            f"[{self.rule}] {self.message}{hint}"
        )


@dataclass(frozen=True)
class Rule:
    """One registered invariant of any rule family (REP/PV/TC/CC).

    ``check`` is the AST check a lint rule carries; plan-artifact rules
    are detected by their pass and leave it ``None``.
    """

    rule_id: str
    name: str
    severity: Severity
    description: str
    check: Callable[[Any], Iterable[Diagnostic]] | None = None


def catalogue(*rules: Rule) -> Mapping[str, Rule]:
    """The id-keyed catalogue of one rule family."""
    return {rule.rule_id: rule for rule in rules}


def finding(
    rules: Mapping[str, Rule],
    rule_id: str,
    artifact: str,
    node: str | None,
    message: str,
    fix_hint: str = "",
    severity: Severity | None = None,
) -> Diagnostic:
    """A plan-artifact diagnostic at the catalogue severity (overridable)."""
    return Diagnostic(
        rule_id,
        severity or rules[rule_id].severity,
        Location(artifact, node=node),
        message,
        fix_hint,
    )


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """Stable order: by file, line, column, then rule id."""
    return sorted(
        diagnostics,
        key=lambda d: (
            d.location.file,
            d.location.line,
            d.location.column,
            d.rule,
        ),
    )


def count_by_severity(
    diagnostics: Sequence[Diagnostic],
) -> dict[Severity, int]:
    """How many findings of each severity (zero-filled)."""
    counts = {severity: 0 for severity in Severity}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    return counts


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    """Whether any finding is error-severity."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


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
