"""The typechecker CLI: ``python -m repro.analysis.typecheck``.

Discovers plan-building Python modules (each exposing a zero-argument
``build_wrangler()``), runs the full pre-execution gate —
:func:`~repro.analysis.typecheck.gate.run_preflight` via
``Wrangler.preflight()`` — over each, and renders text or JSON through
the shared reporters, re-anchoring every finding to the defining file.

Exit-code contract (identical to the lint CLI, what CI keys off):

* ``0`` — no error-severity findings;
* ``1`` — at least one error-severity finding;
* ``2`` — the tool itself was misused (unknown path, unimportable
  module, an explicitly named file without an entry point).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.plans import (
    DEFAULT_ENTRY,
    check_each,
    import_plan_module,
    reanchor,
)
from repro.analysis.report import render, render_rule_catalogue
from repro.analysis.typecheck.rules import TYPECHECK_RULES
from repro.errors import AnalysisError

__all__ = ["TypecheckResult", "check_module", "check_paths", "main"]


@dataclass(frozen=True)
class TypecheckResult:
    """Findings plus the coverage counters the reporters need."""

    diagnostics: tuple[Diagnostic, ...]
    checked_plans: int
    skipped: tuple[str, ...]
    nodes: int
    certified: int

    @property
    def ok(self) -> bool:
        """Whether every plan passes (no error-severity findings)."""
        return not has_errors(self.diagnostics)

    @property
    def exit_code(self) -> int:
        """The CLI exit code this result maps to."""
        return 0 if self.ok else 1


def check_module(
    path: Path, entry: str = DEFAULT_ENTRY
) -> TypecheckResult | None:
    """Type-check the plan one module builds; ``None`` when it has no
    ``entry`` callable (not a plan module)."""
    module = import_plan_module(path)
    build = getattr(module, entry, None)
    if build is None or not callable(build):
        return None
    try:
        wrangler = build()
        report = wrangler.preflight()
    except AnalysisError:
        raise
    # A user-supplied build_wrangler() can fail arbitrarily; fold it
    # into the CLI's misuse exit code rather than a traceback.
    except Exception as failure:  # repro: noqa[REP002]
        raise AnalysisError(
            f"preflight of {path} failed: {failure}"
        ) from failure
    nodes = certified = 0
    flow = getattr(wrangler, "_flow", None)
    if flow is not None and hasattr(flow, "purity_map"):
        purity = flow.purity_map()
        nodes = len(purity)
        certified = sum(1 for verdict in purity.values() if verdict)
    return TypecheckResult(
        tuple(reanchor(d, str(path)) for d in report.diagnostics),
        checked_plans=1,
        skipped=(),
        nodes=nodes,
        certified=certified,
    )


def check_paths(
    paths: Sequence[str], entry: str = DEFAULT_ENTRY
) -> TypecheckResult:
    """Type-check every plan module under the given paths.

    Directory-discovered files without the entry point are skipped and
    listed in ``skipped``; an explicitly named file without one is a
    usage error.
    """
    results, skipped = check_each(
        paths, entry, lambda path: check_module(path, entry=entry)
    )
    return TypecheckResult(
        tuple(
            sort_diagnostics(
                d for result in results for d in result.diagnostics
            )
        ),
        checked_plans=len(results),
        skipped=tuple(skipped),
        nodes=sum(result.nodes for result in results),
        certified=sum(result.certified for result in results),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.typecheck",
        description=(
            "repro schema-flow type checker: runs the pre-execution gate "
            "(structure + types + purity) over plan-building modules"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["examples"],
        help="plan modules or directories to check (default: examples)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--entry", default=DEFAULT_ENTRY,
        help=f"plan-module entry point (default: {DEFAULT_ENTRY})",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the TC rule catalogue and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        sys.stdout.write(render_rule_catalogue(TYPECHECK_RULES, 32) + "\n")
        return 0
    try:
        result = check_paths(args.paths, entry=args.entry)
    except AnalysisError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    for path in result.skipped:
        sys.stderr.write(f"note: {path}: no {args.entry}(), skipped\n")
    report = render(
        result.diagnostics, args.format, checked_files=result.checked_plans
    )
    sys.stdout.write(report + "\n")
    if result.nodes:
        sys.stdout.write(
            f"purity: {result.certified}/{result.nodes} dataflow nodes "
            "carry a verdict\n"
        )
    return result.exit_code
