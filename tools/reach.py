"""Function-level reach of ``src/repro``: the lines no run enters.

A profile hook (``sys.setprofile``, and ``threading.setprofile`` for
threads) records every code object entered while these run, all in
this process:

* the six examples under ``examples/``, each run as ``__main__``;
* every ``benchmarks/bench_*.py`` under pytest, with the benchmark
  helpers' results directory pointed at a temporary one, so no
  committed result is rewritten;
* each ``bench/`` workload's set-up plus three ops (seed 2016), with
  its working files in a temporary directory;
* the package entry points CI steps run in child processes:
  ``python -m repro.obs.report FILE --validate-only`` over the committed
  telemetry files ``make bench-smoke`` and ``make chaos`` check, and
  ``tools/typecheck.py examples`` (``make typecheck``), which reaches
  ``Wrangler.preflight``.

The unit is the outermost function or method: a ``def`` at module or
class level, counted from its first decorator to its last line (a
nested function is part of the one that encloses it).  It is reached
when its code object was entered.  Child processes are not traced,
which is why the CI steps' entry points are called here in-process.

Prints the unreached share of ``src/repro``'s function lines, then per
module its unreached lines and the functions they belong to.

    python tools/reach.py            # or: make reach (a few minutes)
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
BENCH_SEED = 2016
BENCH_OPS = 3


@dataclass(frozen=True)
class Function:
    """One outermost function or method of a module."""

    module: str
    name: str
    first: int  # first decorator line, or the ``def`` line
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(path: Path) -> list[Function]:
    """The outermost functions and methods defined in ``path``."""
    module = str(path.relative_to(PACKAGE.parent))
    found: list[Function] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found.append(Function(
                    module, prefix + child.name, first, child.end_lineno
                ))
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


# -- tracing ---------------------------------------------------------------


class Probe:
    """Records every code object entered while it is installed."""

    def __init__(self) -> None:
        self.entered: set = set()

    def _hook(self, frame, event, arg):
        if event == "call":
            self.entered.add(frame.f_code)

    def __enter__(self) -> "Probe":
        sys.setprofile(self._hook)
        threading.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        threading.setprofile(None)
        sys.setprofile(None)

    def keys(self) -> set[tuple[str, int]]:
        """``(real path, first line)`` of every code object entered."""
        return {
            (os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in self.entered
        }


# -- what runs ---------------------------------------------------------------


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def run_benchmarks(tmp_root: Path) -> int:
    import pytest

    import helpers  # benchmarks/, on sys.path

    helpers.RESULTS_DIR = tmp_root / "results"
    files = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    return int(pytest.main([*files, "-q", "-p", "no:cacheprovider"]))


def run_bench_workloads(tmp_root: Path) -> None:
    from workloads import WORKLOADS  # bench/, on sys.path

    for name, workload_class in WORKLOADS.items():
        workdir = tmp_root / name
        workdir.mkdir()
        workload = workload_class(BENCH_SEED, workdir)
        for index in range(-workload.warmup_ops, BENCH_OPS):
            prepared = workload.prepare(index)
            wrangler, result = workload.op(prepared)
            workload.check(prepared, wrangler, result)


#: The telemetry files CI schema-checks with ``python -m repro.obs.report
#: FILE --validate-only`` (``make bench-smoke``, ``make chaos``).
VALIDATED_TELEMETRY = (
    "E10-repair", "E6-incremental", "E9-fusion", "E11-resilience",
)


def run_ci_entry_points() -> int:
    """The CI steps' child-process entry points, in this process: the
    report CLI's schema check and the plan gate over the examples.
    Returns the first non-zero exit code (0 when all pass)."""
    from repro.obs import report as obs_report

    import typecheck  # tools/, on sys.path

    results = ROOT / "benchmarks" / "results"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        codes = [
            obs_report.main(
                [str(results / f"{name}.telemetry.json"), "--validate-only"]
            )
            for name in VALIDATED_TELEMETRY
        ]
        codes.append(typecheck.main(["examples"]))
    return next((code for code in codes if code), 0)


# -- report ------------------------------------------------------------------


def report(keys: set[tuple[str, int]]) -> str:
    per_module: dict[str, list[Function]] = {}
    total = unreached = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        real = os.path.realpath(path)
        for function in functions(path):
            total += function.lines
            if (real, function.first) not in keys:
                unreached += function.lines
                per_module.setdefault(function.module, []).append(function)
    lines = [
        f"unreached: {unreached} of {total} function lines in src/repro "
        f"({100.0 * unreached / total:.1f}%)",
        "",
    ]
    ranked = sorted(
        per_module.items(),
        key=lambda item: (-sum(f.lines for f in item[1]), item[0]),
    )
    for module, missed in ranked:
        lines.append(f"{module}: {sum(f.lines for f in missed)} lines")
        for function in missed:
            lines.append(
                f"    {function.first}-{function.last}  {function.name}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    for directory in ("src", "benchmarks", "bench", "examples", "tools"):
        sys.path.insert(0, str(ROOT / directory))
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp_root = Path(tmp)
        with Probe() as probe:
            run_examples()
            status = run_benchmarks(tmp_root)
            run_bench_workloads(tmp_root)
            ci_status = run_ci_entry_points()
    sys.stdout.write(report(probe.keys()) + "\n")
    if status != 0:
        sys.stderr.write(f"benchmarks exited {status}: reach is partial\n")
    if ci_status != 0:
        sys.stderr.write(f"a CI entry point exited {ci_status}\n")
    return status or ci_status


if __name__ == "__main__":
    sys.exit(main())
