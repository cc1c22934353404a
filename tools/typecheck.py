"""The pre-execution gate over plan-building modules.

    python tools/typecheck.py examples               # or: make typecheck
    python tools/typecheck.py examples/quickstart.py # one plan

Each module exposing a zero-argument ``build_wrangler()`` is imported,
its wrangler built and ``Wrangler.preflight()`` run once — the probe is
the only data access, so the output is deterministic over an unchanged
tree.  Every finding of the gate (contexts + types + cost, info
severity included) is printed, anchored to the file that built the
plan.  A module found in a directory without ``build_wrangler()`` is
skipped with a note; a file named explicitly without one is misuse.

Exit codes: ``0`` no error-severity finding, ``1`` at least one, ``2``
misuse (unknown path, unimportable module, a build that fails).
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    has_errors,
    render_text,
    sort_diagnostics,
)


class UsageError(Exception):
    """The tool was misused: an unknown path, an unimportable module, a file
    without ``build_wrangler()``, or a build that fails.  Exit code 2."""


#: The zero-argument plan-module entry point.
ENTRY = "build_wrangler"

_module_counter = itertools.count(1)


@dataclass(frozen=True)
class PlanChecks:
    """The gate's findings over every checked plan module, re-anchored
    to the module that built the plan."""

    diagnostics: tuple[Diagnostic, ...]
    checked_plans: int
    skipped: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether every plan passes the gate (no error finding)."""
        return not has_errors(self.diagnostics)


def _import(path: Path):
    """Import ``path`` under a fresh private module name."""
    name = f"_repro_plan_{next(_module_counter)}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise UsageError(f"cannot load module from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    # Arbitrary plan modules can fail arbitrarily at import time; every
    # failure becomes the misuse exit code.
    except Exception as failure:  # repro: noqa[REP002]
        sys.modules.pop(name, None)
        raise UsageError(f"cannot import {path}: {failure}") from failure
    return module


def _preflight(path: Path) -> list[Diagnostic] | None:
    """The gate's findings on the plan one module builds, anchored to
    ``path``; ``None`` when it has no ``build_wrangler()``."""
    build = getattr(_import(path), ENTRY, None)
    if build is None or not callable(build):
        return None
    try:
        report = build().preflight()
    # A user-supplied build_wrangler() can fail arbitrarily; fold it
    # into the misuse exit code rather than a traceback.
    except Exception as failure:  # repro: noqa[REP002]
        raise UsageError(
            f"preflight of {path} failed: {failure}"
        ) from failure
    return [
        Diagnostic(
            d.rule,
            d.severity,
            Location(
                f"{path}::{d.location.file}",
                line=d.location.line,
                column=d.location.column,
                node=d.location.node,
            ),
            d.message,
            d.fix_hint,
        )
        for d in report.diagnostics
    ]


def check_paths(paths: Sequence[str]) -> PlanChecks:
    """Preflight every plan module under ``paths``: named files first,
    then the ``.py`` files found under named directories."""
    explicit: list[Path] = []
    discovered: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            discovered.extend(
                p for p in sorted(path.rglob("*.py")) if p.stem != "__init__"
            )
        elif path.is_file():
            explicit.append(path)
        else:
            raise UsageError(f"no such file or directory: {raw}")
    findings: list[Diagnostic] = []
    checked = 0
    skipped: list[str] = []
    for path in explicit:
        found = _preflight(path)
        if found is None:
            raise UsageError(f"{path} defines no {ENTRY}() entry point")
        findings.extend(found)
        checked += 1
    for path in discovered:
        found = _preflight(path)
        if found is None:
            skipped.append(str(path))
        else:
            findings.extend(found)
            checked += 1
    return PlanChecks(
        tuple(sort_diagnostics(findings)), checked, tuple(skipped)
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Check, print the report, return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=["examples"],
        help="plan modules or directories to check (default: examples)",
    )
    args = parser.parse_args(argv)
    try:
        result = check_paths(args.paths)
    except UsageError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    for path in result.skipped:
        sys.stderr.write(f"note: {path}: no {ENTRY}(), skipped\n")
    sys.stdout.write(
        render_text(result.diagnostics, checked_files=result.checked_plans)
        + "\n"
    )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
