"""Plan-module checking behind the driver's ``typecheck``.

It takes files or directories of plan-building Python modules (each
exposing a zero-argument entry point, ``build_wrangler()`` by
convention).  Each module is imported, its wrangler built, and
``Wrangler.preflight()`` run once — the probe is the only data access,
so output is deterministic over an unchanged tree — and the gate's
findings are re-anchored to the file that built the plan.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

from repro.analysis.diagnostics import (
    Diagnostic,
    Location,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.validator import ValidationReport
from repro.errors import AnalysisError

__all__ = [
    "DEFAULT_ENTRY",
    "PlanCheck",
    "PlanChecks",
    "check_module",
    "check_paths",
    "import_plan_module",
    "reanchor",
]

_module_counter = itertools.count(1)

#: The conventional zero-argument plan-module entry point.
DEFAULT_ENTRY = "build_wrangler"


def import_plan_module(path: Path):
    """Import ``path`` under a fresh private module name."""
    name = f"_repro_plan_{next(_module_counter)}"
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise AnalysisError(f"cannot load module from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    # Arbitrary user plan modules can fail arbitrarily at import time;
    # every failure becomes the CLI's misuse exit code.
    except Exception as failure:  # repro: noqa[REP002]
        sys.modules.pop(name, None)
        raise AnalysisError(f"cannot import {path}: {failure}") from failure
    return module


def reanchor(diagnostic: Diagnostic, path: str) -> Diagnostic:
    """Point a plan-artifact finding at the file that builds the plan."""
    location = diagnostic.location
    return Diagnostic(
        diagnostic.rule,
        diagnostic.severity,
        Location(
            f"{path}::{location.file}",
            line=location.line,
            column=location.column,
            node=location.node,
        ),
        diagnostic.message,
        diagnostic.fix_hint,
    )


def _discover(paths: Sequence[str]) -> tuple[list[Path], list[Path]]:
    """(explicit files, directory-discovered files) under ``paths``."""
    explicit: list[Path] = []
    discovered: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            discovered.extend(
                p for p in sorted(path.rglob("*.py"))
                if p.stem != "__init__"
            )
        elif path.is_file():
            explicit.append(path)
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
    return explicit, discovered


@dataclass(frozen=True)
class PlanCheck:
    """One plan module's preflight."""

    path: str
    report: ValidationReport


@dataclass(frozen=True)
class PlanChecks:
    """Every checked plan module, and the findings the driver renders
    (computed once: re-anchoring and sorting are per-finding work)."""

    checks: tuple[PlanCheck, ...]
    skipped: tuple[str, ...] = ()

    @property
    def checked_plans(self) -> int:
        return len(self.checks)

    @cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """The gate's findings, re-anchored to the plan modules."""
        return tuple(
            sort_diagnostics(
                reanchor(d, check.path)
                for check in self.checks
                for d in check.report.diagnostics
            )
        )

    @property
    def ok(self) -> bool:
        """Whether every plan passes the gate (no error finding)."""
        return not has_errors(self.diagnostics)


def check_module(path: Path, entry: str = DEFAULT_ENTRY) -> PlanCheck | None:
    """Preflight the plan one module builds; ``None`` when it has no
    ``entry`` callable (not a plan module)."""
    module = import_plan_module(path)
    build = getattr(module, entry, None)
    if build is None or not callable(build):
        return None
    try:
        report = build().preflight()
    except AnalysisError:
        raise
    # A user-supplied build_wrangler() can fail arbitrarily; fold it
    # into the driver's misuse exit code rather than a traceback.
    except Exception as failure:  # repro: noqa[REP002]
        raise AnalysisError(
            f"preflight of {path} failed: {failure}"
        ) from failure
    return PlanCheck(str(path), report)


def check_paths(
    paths: Sequence[str], entry: str = DEFAULT_ENTRY
) -> PlanChecks:
    """Preflight every plan module under ``paths``.

    Directory-discovered files without the ``entry`` callable are
    skipped and listed in ``skipped``; an explicitly named file without
    one is a usage error.
    """
    explicit, discovered = _discover(paths)
    checks: list[PlanCheck] = []
    skipped: list[str] = []
    for path in explicit:
        check = check_module(path, entry)
        if check is None:
            raise AnalysisError(
                f"{path} defines no {entry}() entry point"
            )
        checks.append(check)
    for path in discovered:
        check = check_module(path, entry)
        if check is None:
            skipped.append(str(path))
        else:
            checks.append(check)
    return PlanChecks(tuple(checks), tuple(skipped))
