"""The cost-certifier CLI: ``python -m repro.analysis.cost``.

Three modes behind one entry point:

* **certify** (default) — discovers plan-building Python modules (each
  exposing a zero-argument ``build_wrangler()``), probes their sources
  (the cheap sample pass, so row hints are real), composes each plan,
  and certifies its estimated cost and cardinality with the
  :class:`~repro.analysis.cost.certifier.CostCertifier`; renders the
  per-node estimates plus ``CC`` findings as text or JSON.  The probe is
  the only data access — estimates are computed, never measured — so
  output is deterministic over an unchanged tree.
* ``--calibrate`` — fits per-operator unit costs from committed
  ``*.telemetry.json`` snapshots and reports the prediction error the
  fitted constants achieve (see :mod:`repro.analysis.cost.calibration`).
* ``--ratchet`` — compares fresh ``BENCH_*.json`` records against
  committed baselines and fails on any metric regressing past the
  tolerance (see :mod:`repro.analysis.cost.ratchet`).

Exit-code contract (identical to the other analysis CLIs):

* ``0`` — no error-severity finding (and, under ``--ratchet``, no
  regression);
* ``1`` — at least one error-severity finding or ratchet regression;
* ``2`` — the tool itself was misused (unknown path, unimportable
  module, an explicitly named file without an entry point).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.cost.calibration import calibrate
from repro.analysis.cost.certifier import CostCertifier, PlanCostReport
from repro.analysis.cost.ratchet import (
    DEFAULT_TOLERANCE,
    orphan_baselines,
    run_ratchet,
)
from repro.analysis.cost.rules import COST_RULES
from repro.analysis.plans import (
    DEFAULT_ENTRY,
    check_each,
    import_plan_module,
    reanchor,
)
from repro.analysis.report import render, render_rule_catalogue
from repro.errors import AnalysisError

__all__ = ["CostCheckResult", "check_module", "check_paths", "main"]


@dataclass(frozen=True)
class CostCheckResult:
    """Cost reports and findings plus the coverage counters."""

    diagnostics: tuple[Diagnostic, ...]
    reports: tuple[tuple[str, PlanCostReport], ...]
    checked_plans: int
    skipped: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """No error-severity finding (over-budget or quadratic plan)."""
        return not has_errors(self.diagnostics)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def check_module(
    path: Path,
    entry: str = DEFAULT_ENTRY,
    certifier: CostCertifier | None = None,
) -> CostCheckResult | None:
    """Cost-certify the plan one module builds; ``None`` when it has no
    ``entry`` callable (not a plan module)."""
    module = import_plan_module(path)
    build = getattr(module, entry, None)
    if build is None or not callable(build):
        return None
    try:
        wrangler = build()
        flow = wrangler.flow
        flow.pull("probe")
        plan = wrangler.planner.plan(
            wrangler.user,
            wrangler.data,
            wrangler.registry,
            wrangler.working.annotations,
        )
        report = (certifier or CostCertifier()).check(
            plan=plan,
            user=wrangler.user,
            registry=wrangler.registry,
            dataflow=flow,
            budget=getattr(wrangler, "_cost_budget", None),
            discover_constraints=getattr(
                wrangler, "discover_constraints", False
            ),
        )
    except AnalysisError:
        raise
    # A user-supplied build_wrangler() can fail arbitrarily; fold it
    # into the CLI's misuse exit code rather than a traceback.
    except Exception as failure:  # repro: noqa[REP002]
        raise AnalysisError(
            f"cost certification of {path} failed: {failure}"
        ) from failure
    findings = [
        reanchor(d, str(path))
        for d in report.diagnostics(min_severity=Severity.INFO)
    ]
    return CostCheckResult(
        tuple(findings),
        ((str(path), report),),
        checked_plans=1,
        skipped=(),
    )


def check_paths(
    paths: Sequence[str], entry: str = DEFAULT_ENTRY
) -> CostCheckResult:
    """Cost-certify every plan module under the given paths.

    Directory-discovered files without the entry point are skipped and
    listed in ``skipped``; an explicitly named file without one is a
    usage error.
    """
    certifier = CostCertifier()
    results, skipped = check_each(
        paths,
        entry,
        lambda path: check_module(path, entry=entry, certifier=certifier),
    )
    return CostCheckResult(
        tuple(
            sort_diagnostics(
                d for result in results for d in result.diagnostics
            )
        ),
        tuple(r for result in results for r in result.reports),
        checked_plans=len(results),
        skipped=tuple(skipped),
    )


def _cost_block(result: CostCheckResult) -> str:
    """The per-plan node→estimate table appended to the text report."""
    lines = ["cost certification:"]
    for path, report in result.reports:
        budget = (
            "unbounded" if report.budget is None
            else f"{report.budget:.2f}"
        )
        lines.append(f"  {path} (budget {budget})")
        names = sorted(report.estimates)
        width = max((len(name) for name in names), default=0)
        for name in names:
            estimate = report.estimates[name]
            lines.append(
                f"    {name:<{width}}  rows={estimate.rows:>8.1f}  "
                f"work={estimate.work:>10.1f}  "
                f"access={estimate.access_cost:>7.2f}  "
                f"[{estimate.confidence}]"
            )
        verdict = "OVER BUDGET" if report.over_budget else "within budget"
        lines.append(
            f"    total: access={report.total_access_cost:.2f} "
            f"work={report.total_work:.1f} "
            f"predicted={report.predicted_seconds:.4f}s ({verdict})"
        )
    return "\n".join(lines)


def _render_json(result: CostCheckResult) -> str:
    payload = {
        "plans": [
            {"path": path, **report.to_dict()}
            for path, report in result.reports
        ],
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "summary": {
            "checked_plans": result.checked_plans,
            "over_budget": [
                path for path, report in result.reports
                if report.over_budget
            ],
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.cost",
        description=(
            "repro cost & cardinality certifier: propagates row and "
            "cost estimates through each plan's dataflow, checks them "
            "against declared budgets, calibrates the model from "
            "telemetry, and ratchets benchmark baselines"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=(
            "plan modules or directories to certify (default: examples); "
            "with --calibrate, telemetry snapshots or directories "
            "(default: benchmarks/results)"
        ),
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
        "--calibrate", action="store_true",
        help="fit per-operator unit costs from telemetry snapshots",
    )
    parser.add_argument(
        "--ratchet", action="store_true",
        help="compare fresh BENCH_*.json records against baselines",
    )
    parser.add_argument(
        "--baseline", default="benchmarks/results",
        help="ratchet baseline directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--fresh", default="benchmarks/results",
        help="ratchet fresh-results directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=(
            "relative regression allowed before the ratchet fails "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    parser.add_argument(
        "--check-baselines", metavar="BENCHMARKS_DIR", default=None,
        help=(
            "with --ratchet: additionally fail if any baseline under "
            "--baseline has no generating benchmark (its experiment "
            "name appears in no bench_*.py under BENCHMARKS_DIR)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the CC rule catalogue and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        sys.stdout.write(render_rule_catalogue(COST_RULES, 32) + "\n")
        return 0

    if args.ratchet:
        try:
            report = run_ratchet(
                args.fresh, args.baseline, tolerance=args.tolerance
            )
            orphans = (
                orphan_baselines(args.baseline, args.check_baselines)
                if args.check_baselines is not None
                else []
            )
        except AnalysisError as failure:
            sys.stderr.write(f"error: {failure}\n")
            return 2
        if args.format == "json":
            payload = report.to_dict()
            if args.check_baselines is not None:
                payload["orphan_baselines"] = orphans
                payload["ok"] = report.ok and not orphans
            sys.stdout.write(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        else:
            sys.stdout.write(report.render() + "\n")
            for orphan in orphans:
                sys.stdout.write(
                    f"orphan baseline: {orphan} has no generating "
                    f"benchmark under {args.check_baselines}\n"
                )
        if orphans:
            return 1
        return report.exit_code

    if args.calibrate:
        try:
            report = calibrate(args.paths or ["benchmarks/results"])
        except AnalysisError as failure:
            sys.stderr.write(f"error: {failure}\n")
            return 2
        findings = sort_diagnostics(report.diagnostics())
        if args.format == "json":
            payload = report.to_dict()
            payload["diagnostics"] = [d.to_dict() for d in findings]
            sys.stdout.write(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
        else:
            sys.stdout.write(report.render() + "\n")
            for finding in findings:
                sys.stdout.write(finding.render() + "\n")
        return 1 if has_errors(findings) else 0

    try:
        result = check_paths(args.paths or ["examples"], entry=args.entry)
    except AnalysisError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    for path in result.skipped:
        sys.stderr.write(f"note: {path}: no {args.entry}(), skipped\n")
    if args.format == "json":
        sys.stdout.write(_render_json(result) + "\n")
    else:
        report = render(
            result.diagnostics, "text", checked_files=result.checked_plans
        )
        sys.stdout.write(report + "\n")
        sys.stdout.write(_cost_block(result) + "\n")
    return result.exit_code
