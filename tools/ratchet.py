"""The perf ratchet: fresh ``BENCH_*.json`` runs vs committed baselines.

    python tools/ratchet.py --baseline benchmarks/.ratchet \
        --fresh benchmarks/results --tolerance 0.5 \
        --check-baselines benchmarks          # what make bench-gate runs

Every ``BENCH_<name>.json`` baseline is compared metric by metric
against a freshly emitted run of the same benchmark, and any wall-clock
or cost metric that regressed by more than the tolerance fails the gate.

Only *lower-is-better* metrics are ratcheted: the numeric leaves under a
baseline's ``timings_seconds`` and ``costs`` objects plus any top-level
``cost`` field.  Throughput-style numbers (speedups, cluster counts)
are carried in the baselines for the record but are machine-dependent,
so they do not gate.  A baseline file or metric with no fresh
counterpart fails the gate too — deleting a benchmark or a measurement
must be an explicit decision, not a silent skip.

Exit codes: ``0`` no regression, nothing missing and no orphan
baseline; ``1`` any of those; ``2`` misuse (a directory that does not
exist or holds no baseline, ``--baseline`` and ``--fresh`` naming the
same directory).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence


class UsageError(Exception):
    """The tool was misused: a missing directory, no baseline, or
    ``--baseline`` and ``--fresh`` naming one directory.  Exit code 2."""


#: Allowed relative regression before a metric fails the gate.
DEFAULT_TOLERANCE = 0.15

#: Baseline keys whose numeric leaves are lower-is-better and ratcheted.
_RATCHETED_BLOCKS = ("timings_seconds", "costs")
_RATCHETED_SCALARS = ("cost",)


@dataclass(frozen=True)
class RatchetEntry:
    """One compared metric, or one missing fresh file or metric."""

    benchmark: str
    metric: str
    baseline: float | None
    fresh: float | None
    delta: float | None  # relative change; positive = slower/costlier
    status: str  # "ok" | "improved" | "regressed" | "missing"

    @property
    def failed(self) -> bool:
        return self.status in ("regressed", "missing")

    def render(self) -> str:
        if self.status == "missing":
            return f"{self.benchmark}: no fresh {self.metric}"
        sign = "+" if (self.delta or 0.0) >= 0 else ""
        return (
            f"{self.benchmark}.{self.metric}: "
            f"{self.baseline:.4f} -> {self.fresh:.4f} "
            f"({sign}{100.0 * (self.delta or 0.0):.1f}%) {self.status}"
        )


@dataclass(frozen=True)
class RatchetReport:
    """Every compared metric plus the gate verdict."""

    entries: tuple[RatchetEntry, ...]
    tolerance: float
    baseline_dir: str
    fresh_dir: str

    @property
    def failures(self) -> tuple[RatchetEntry, ...]:
        return tuple(entry for entry in self.entries if entry.failed)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        lines = [
            f"ratchet: {self.fresh_dir} vs baseline {self.baseline_dir} "
            f"(tolerance {100.0 * self.tolerance:.0f}%)"
        ]
        for entry in self.entries:
            lines.append("  " + entry.render())
        verdict = (
            "OK" if self.ok
            else f"FAIL ({len(self.failures)} regression(s))"
        )
        lines.append(
            f"{len(self.entries)} metric(s) compared: {verdict}"
        )
        return "\n".join(lines)


def _baseline_files(directory: Path) -> list[Path]:
    return [
        path
        for path in sorted(directory.glob("BENCH_*.json"))
        if not path.name.endswith(".telemetry.json")
    ]


def _load(path: Path) -> Mapping[str, Any]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as failure:
        raise UsageError(
            f"cannot read benchmark baseline {path}: {failure}"
        ) from failure
    if not isinstance(payload, Mapping):
        raise UsageError(f"{path}: expected a JSON object")
    return payload


def _ratcheted_metrics(payload: Mapping[str, Any]) -> dict[str, float]:
    """The lower-is-better numeric leaves of one benchmark record."""
    metrics: dict[str, float] = {}
    for block in _RATCHETED_BLOCKS:
        leaves = payload.get(block)
        if not isinstance(leaves, Mapping):
            continue
        for key, value in leaves.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                metrics[f"{block}.{key}"] = float(value)
    for key in _RATCHETED_SCALARS:
        value = payload.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            metrics[key] = float(value)
    return metrics


def run_ratchet(
    fresh_dir: str | Path,
    baseline_dir: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RatchetReport:
    """Compare fresh benchmark records against committed baselines.

    Every ``BENCH_*.json`` in ``baseline_dir`` must have a fresh
    counterpart of the same name in ``fresh_dir``, and every
    lower-is-better metric of a baseline a fresh value in it; a fresh
    value more than ``tolerance`` above the baseline is a regression.
    Metrics with a non-positive baseline are skipped (nothing meaningful
    to ratchet against); having no baselines at all is a usage error.
    """
    baseline_path = Path(baseline_dir)
    fresh_path = Path(fresh_dir)
    if not baseline_path.is_dir():
        raise UsageError(f"no such baseline directory: {baseline_dir}")
    baselines = _baseline_files(baseline_path)
    if not baselines:
        raise UsageError(
            f"no BENCH_*.json baselines under {baseline_dir}"
        )
    entries: list[RatchetEntry] = []
    for baseline_file in baselines:
        name = baseline_file.stem
        fresh_file = fresh_path / baseline_file.name
        if not fresh_file.is_file():
            entries.append(
                RatchetEntry(name, baseline_file.name, None, None, None,
                             "missing")
            )
            continue
        baseline_metrics = _ratcheted_metrics(_load(baseline_file))
        fresh_metrics = _ratcheted_metrics(_load(fresh_file))
        for metric in sorted(baseline_metrics):
            base = baseline_metrics[metric]
            if base <= 0:
                continue
            if metric not in fresh_metrics:
                entries.append(
                    RatchetEntry(name, metric, base, None, None, "missing")
                )
                continue
            fresh = fresh_metrics[metric]
            delta = (fresh - base) / base
            if delta > tolerance:
                status = "regressed"
            elif delta < 0:
                status = "improved"
            else:
                status = "ok"
            entries.append(
                RatchetEntry(name, metric, base, fresh, delta, status)
            )
    return RatchetReport(
        entries=tuple(entries),
        tolerance=tolerance,
        baseline_dir=str(baseline_dir),
        fresh_dir=str(fresh_dir),
    )


def orphan_baselines(
    baseline_dir: str | Path, benchmarks_dir: str | Path
) -> list[str]:
    """Committed ``BENCH_*.json`` baselines no benchmark can regenerate.

    A baseline whose experiment name appears in no ``bench_*.py`` source
    under ``benchmarks_dir`` is a dead weight the ratchet would keep
    enforcing forever: the gate copies it aside, re-runs the suite, and
    then fails on the guaranteed-missing fresh counterpart — or worse,
    silently compares against a stale record nobody can refresh.  The
    check is textual (the experiment name string must occur in some
    benchmark source), which is exactly the contract the benchmark
    helpers enforce when emitting: every ``BENCH_<name>.json`` is
    written under its literal experiment name.
    """
    baseline_path = Path(baseline_dir)
    benchmarks_path = Path(benchmarks_dir)
    if not benchmarks_path.is_dir():
        raise UsageError(
            f"no such benchmarks directory: {benchmarks_dir}"
        )
    sources = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(benchmarks_path.glob("bench_*.py"))
    )
    return [
        baseline.name
        for baseline in _baseline_files(baseline_path)
        if baseline.stem not in sources
    ]


def main(argv: Sequence[str] | None = None) -> int:
    """Ratchet, print the report, return the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, help="baseline directory",
    )
    parser.add_argument(
        "--fresh", required=True, help="fresh-results directory",
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
            "additionally fail if any baseline under --baseline has no "
            "generating benchmark (its experiment name appears in no "
            "bench_*.py under BENCHMARKS_DIR)"
        ),
    )
    args = parser.parse_args(argv)
    try:
        if Path(args.baseline).resolve() == Path(args.fresh).resolve():
            raise UsageError(
                f"--baseline and --fresh both name {args.fresh}: "
                "a directory compared with itself always passes"
            )
        report = run_ratchet(
            args.fresh, args.baseline, tolerance=args.tolerance
        )
        orphans = (
            orphan_baselines(args.baseline, args.check_baselines)
            if args.check_baselines is not None
            else []
        )
    except UsageError as failure:
        sys.stderr.write(f"error: {failure}\n")
        return 2
    lines = [report.render()]
    lines.extend(
        f"orphan baseline: {orphan} has no generating "
        f"benchmark under {args.check_baselines}"
        for orphan in orphans
    )
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if orphans else report.exit_code


if __name__ == "__main__":
    sys.exit(main())
