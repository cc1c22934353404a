"""The framework linter engine behind ``python -m repro.analysis lint``.

Discovers Python files, runs every registered rule from
:mod:`repro.analysis.rules` and honours ``# repro: noqa[...]`` line
suppressions; the driver (:mod:`repro.analysis.__main__`) renders the
result and maps it to the shared exit-code contract (``0`` clean, ``1``
an error-severity finding survived suppression, ``2`` misuse — unknown
path or rule).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic, has_errors, sort_diagnostics
from repro.analysis.rules import RULES, ModuleContext, noqa_pragmas, run_rules
from repro.errors import AnalysisError

__all__ = ["LintResult", "lint_source", "lint_paths"]


@dataclass(frozen=True)
class LintResult:
    """Findings plus the bookkeeping reporters need."""

    diagnostics: tuple[Diagnostic, ...]
    checked_files: int
    suppressed: int

    @property
    def ok(self) -> bool:
        """Whether the tree passes (no error-severity findings)."""
        return not has_errors(self.diagnostics)

    @property
    def exit_code(self) -> int:
        """The CLI exit code this result maps to."""
        return 0 if self.ok else 1


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Per-line suppressions: line -> rule ids, or ``None`` for all rules."""
    return {
        line: None if rules is None else set(rules)
        for line, _, rules in noqa_pragmas(source)
    }


def _apply_suppressions(
    diagnostics: Iterable[Diagnostic], source: str
) -> tuple[list[Diagnostic], int]:
    table = _suppressions(source)
    kept: list[Diagnostic] = []
    suppressed = 0
    for diagnostic in diagnostics:
        rules = table.get(diagnostic.location.line, "absent")
        if rules == "absent":
            kept.append(diagnostic)
        elif rules is None or diagnostic.rule in rules:
            suppressed += 1
        else:
            kept.append(diagnostic)
    return kept, suppressed


def _module_identity(path: Path) -> tuple[str, bool]:
    """Architectural layer and CLI-ness of a file."""
    parts = list(path.parts)
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        dotted = ".".join(parts[index:])[: -len(".py")]
    else:
        dotted = path.stem
    segments = dotted.split(".")
    if segments[0] == "repro":
        if len(segments) == 1 or segments[1] == "__init__":
            layer = "repro"
        else:
            layer = segments[1]
    else:
        layer = segments[0]
    if layer.endswith(".py"):
        layer = layer[:-3]
    is_main = path.stem == "__main__"
    if is_main:
        layer = "__main__"
    return layer, is_main


def lint_source(
    source: str,
    path: str = "<string>",
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint one module given as a string (the unit-test entry point); its
    layer comes from ``path``."""
    layer, is_main = _module_identity(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as failure:
        raise AnalysisError(f"cannot parse {path}: {failure}") from failure
    context = ModuleContext(
        path=path,
        layer=layer,
        tree=tree,
        source=source,
        is_main=is_main,
    )
    findings = run_rules(context, select=select)
    kept, suppressed = _apply_suppressions(findings, source)
    return LintResult(tuple(sort_diagnostics(kept)), 1, suppressed)


def _discover(paths: Sequence[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return files


def lint_paths(
    paths: Sequence[str], select: Iterable[str] | None = None
) -> LintResult:
    """Lint every ``.py`` file under the given paths."""
    if select is not None:
        unknown = set(select) - set(RULES)
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(RULES))})"
            )
    diagnostics: list[Diagnostic] = []
    suppressed = 0
    files = _discover(paths)
    for file in files:
        result = lint_source(
            file.read_text(encoding="utf-8"), path=str(file), select=select
        )
        diagnostics.extend(result.diagnostics)
        suppressed += result.suppressed
    return LintResult(
        tuple(sort_diagnostics(diagnostics)), len(files), suppressed
    )
