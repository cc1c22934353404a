"""The analysis driver: ``python -m repro.analysis <subcommand>``.

* ``lint [paths]`` — the framework linter (:mod:`repro.analysis.lint`)
  over Python sources (default ``src/repro``);
* ``typecheck [paths]`` — the full pre-execution gate (contexts + types
  + cost, :func:`~repro.analysis.typecheck.run_preflight` via
  ``Wrangler.preflight()``) over plan-building modules (default
  ``examples``), every finding info severity included;
* ``ratchet`` — fresh ``BENCH_*.json`` records against committed
  baselines (:mod:`repro.analysis.cost.ratchet`).

Exit-code contract (what CI keys off), identical for every subcommand:

* ``0`` — no error-severity finding (for ``ratchet``: no regression and
  no orphan baseline);
* ``1`` — at least one error-severity finding or ratchet failure;
* ``2`` — the tool itself was misused (unknown subcommand, path or rule,
  unimportable module, an explicitly named file without an entry point).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis.cost import COST_RULES, run_ratchet
from repro.analysis.cost.ratchet import DEFAULT_TOLERANCE, orphan_baselines
from repro.analysis.diagnostics import has_errors
from repro.analysis.lint import lint_paths
from repro.analysis.plans import DEFAULT_ENTRY, check_paths
from repro.analysis.report import render, render_rule_catalogue
from repro.analysis.rules import RULES
from repro.analysis.typecheck import TYPECHECK_RULES
from repro.analysis.validator import VALIDATOR_RULES
from repro.errors import AnalysisError

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro static analysis: lint, typecheck, ratchet",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, description: str) -> argparse.ArgumentParser:
        command = commands.add_parser(name, description=description)
        command.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="report format",
        )
        return command

    def add_listing(command: argparse.ArgumentParser, what: str) -> None:
        command.add_argument(
            "--list-rules", action="store_true",
            help=f"print the {what} rule catalogue and exit",
        )

    lint = add("lint", "repro framework linter (stdlib ast, no dependencies)")
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    add_listing(lint, "REP")

    plans = add(
        "typecheck",
        "repro type checker: runs the pre-execution gate "
        "(contexts + types + cost) over plan-building modules",
    )
    plans.add_argument(
        "paths", nargs="*", default=["examples"],
        help="plan modules or directories to check (default: examples)",
    )
    plans.add_argument(
        "--entry", default=DEFAULT_ENTRY,
        help=f"plan-module entry point (default: {DEFAULT_ENTRY})",
    )
    add_listing(plans, "PV, TC and CC")

    ratchet = add(
        "ratchet",
        "compare fresh BENCH_*.json records against committed baselines",
    )
    ratchet.add_argument(
        "--baseline", default="benchmarks/results",
        help="baseline directory (default: benchmarks/results)",
    )
    ratchet.add_argument(
        "--fresh", default="benchmarks/results",
        help="fresh-results directory (default: benchmarks/results)",
    )
    ratchet.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=(
            "relative regression allowed before the ratchet fails "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    ratchet.add_argument(
        "--check-baselines", metavar="BENCHMARKS_DIR", default=None,
        help=(
            "additionally fail if any baseline under --baseline has no "
            "generating benchmark (its experiment name appears in no "
            "bench_*.py under BENCHMARKS_DIR)"
        ),
    )
    return parser


def _write(text: str) -> None:
    sys.stdout.write(text + "\n")


def _lint(args: argparse.Namespace) -> int:
    select = None
    if args.select:
        select = [
            token.strip().upper()
            for token in args.select.split(",")
            if token.strip()
        ]
    result = lint_paths(args.paths, select=select)
    _write(
        render(
            result.diagnostics, args.format,
            checked_files=result.checked_files,
        )
    )
    return result.exit_code


def _typecheck(args: argparse.Namespace) -> int:
    result = check_paths(args.paths, entry=args.entry)
    for path in result.skipped:
        sys.stderr.write(f"note: {path}: no {args.entry}(), skipped\n")
    findings = result.diagnostics
    _write(render(findings, args.format, checked_files=result.checked_plans))
    return 1 if has_errors(findings) else 0


def _ratchet(args: argparse.Namespace) -> int:
    report = run_ratchet(args.fresh, args.baseline, tolerance=args.tolerance)
    orphans = (
        orphan_baselines(args.baseline, args.check_baselines)
        if args.check_baselines is not None
        else []
    )
    if args.format == "json":
        payload = report.to_dict()
        if args.check_baselines is not None:
            payload["orphan_baselines"] = orphans
            payload["ok"] = report.ok and not orphans
        _write(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _write(report.render())
        for orphan in orphans:
            _write(
                f"orphan baseline: {orphan} has no generating "
                f"benchmark under {args.check_baselines}"
            )
    return 1 if orphans else report.exit_code


_COMMANDS = {
    "lint": _lint,
    "typecheck": _typecheck,
    "ratchet": _ratchet,
}

#: What ``--list-rules`` prints per subcommand: catalogue, name width.
_CATALOGUES = {
    "lint": (RULES, 26),
    "typecheck": (
        {**VALIDATOR_RULES, **TYPECHECK_RULES, **COST_RULES}, 32
    ),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Driver entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    if getattr(args, "list_rules", False):
        _write(render_rule_catalogue(*_CATALOGUES[args.command]))
        return 0
    try:
        return _COMMANDS[args.command](args)
    except AnalysisError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
