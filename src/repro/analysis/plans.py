"""Plan-module plumbing shared by the typecheck and cost CLIs.

Both CLIs take files or directories of plan-building Python modules
(each exposing a zero-argument entry point, ``build_wrangler()`` by
convention), import them, check the plan each builds, and re-anchor the
plan-artifact findings to the file that built the plan.  What a *check*
is differs per CLI; finding, importing and walking the modules does not.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.analysis.diagnostics import Diagnostic, Location
from repro.errors import AnalysisError

__all__ = [
    "DEFAULT_ENTRY",
    "check_each",
    "import_plan_module",
    "reanchor",
]

R = TypeVar("R")

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


def check_each(
    paths: Sequence[str],
    entry: str,
    check_module: Callable[[Path], R | None],
) -> tuple[list[R], list[str]]:
    """Run ``check_module`` over every plan module under ``paths``.

    ``check_module`` returns ``None`` for a module without the ``entry``
    callable.  Directory-discovered files without it are skipped and
    returned as the second element; an explicitly named file without one
    is a usage error.
    """
    explicit, discovered = _discover(paths)
    results: list[R] = []
    skipped: list[str] = []
    for path in explicit:
        result = check_module(path)
        if result is None:
            raise AnalysisError(
                f"{path} defines no {entry}() entry point"
            )
        results.append(result)
    for path in discovered:
        result = check_module(path)
        if result is None:
            skipped.append(str(path))
            continue
        results.append(result)
    return results, skipped
