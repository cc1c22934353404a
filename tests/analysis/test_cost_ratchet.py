"""The perf ratchet: committed baselines vs fresh runs, the committed
synthetic-regression fixture pair, and the gate's exit-code contract."""

import json
from pathlib import Path

import pytest

from repro.analysis.cost.ratchet import (
    DEFAULT_TOLERANCE,
    orphan_baselines,
    run_ratchet,
)
from repro.errors import AnalysisError

FIXTURES = Path(__file__).with_name("ratchet_fixtures")
BASELINE = FIXTURES / "baseline"
REGRESSED = FIXTURES / "regressed"


def write_bench(directory, name="BENCH_case", **payload):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestCommittedFixturePair:
    """The committed pair proves the gate fails exactly when it should."""

    def test_baseline_against_itself_passes(self):
        report = run_ratchet(BASELINE, BASELINE)
        assert report.ok
        assert report.exit_code == 0
        assert all(e.status == "ok" for e in report.entries)

    def test_synthetic_regression_fails_the_gate(self):
        report = run_ratchet(REGRESSED, BASELINE)
        assert not report.ok
        assert report.exit_code == 1
        failed = {e.metric for e in report.failures}
        # resolve got 20% slower: past the 15% tolerance.
        assert failed == {"timings_seconds.resolve"}

    def test_improvement_and_unchanged_metrics_are_recorded(self):
        report = run_ratchet(REGRESSED, BASELINE)
        by_metric = {e.metric: e for e in report.entries}
        assert by_metric["timings_seconds.fuse"].status == "improved"
        assert by_metric["cost"].status == "ok"
        assert by_metric["costs.acquisition"].status == "ok"

    def test_zero_baseline_metric_is_not_ratcheted(self):
        # A 0.0 baseline admits no relative comparison; the fixture's
        # zero_baseline metric blows up in the fresh run yet must not
        # gate (there is nothing meaningful to ratchet against).
        report = run_ratchet(REGRESSED, BASELINE)
        assert "timings_seconds.zero_baseline" not in {
            e.metric for e in report.entries
        }

    def test_higher_is_better_metrics_never_gate(self):
        # speedups collapse in the regressed fixture, but throughput
        # numbers are machine-dependent and excluded by design.
        report = run_ratchet(REGRESSED, BASELINE)
        assert not any("speedups" in e.metric for e in report.entries)

    def test_wider_tolerance_admits_the_same_regression(self):
        report = run_ratchet(REGRESSED, BASELINE, tolerance=0.25)
        assert report.ok


class TestRatchetMechanics:
    def test_missing_fresh_counterpart_fails(self, tmp_path):
        write_bench(tmp_path / "base", timings_seconds={"t": 1.0})
        report = run_ratchet(tmp_path / "empty-fresh", tmp_path / "base")
        assert not report.ok
        (entry,) = report.entries
        assert entry.status == "missing"
        assert "no fresh" in entry.render()

    def test_tolerance_boundary_is_exclusive(self, tmp_path):
        write_bench(tmp_path / "base", timings_seconds={"t": 1.0})
        write_bench(
            tmp_path / "fresh",
            timings_seconds={"t": 1.0 + DEFAULT_TOLERANCE},
        )
        report = run_ratchet(tmp_path / "fresh", tmp_path / "base")
        assert report.ok  # exactly at tolerance: not yet a regression
        write_bench(
            tmp_path / "fresh",
            timings_seconds={"t": 1.0 + DEFAULT_TOLERANCE + 0.001},
        )
        assert not run_ratchet(tmp_path / "fresh", tmp_path / "base").ok

    def test_metric_absent_from_fresh_record_is_skipped(self, tmp_path):
        write_bench(tmp_path / "base",
                    timings_seconds={"kept": 1.0, "dropped": 1.0})
        write_bench(tmp_path / "fresh", timings_seconds={"kept": 1.0})
        report = run_ratchet(tmp_path / "fresh", tmp_path / "base")
        assert [e.metric for e in report.entries] == [
            "timings_seconds.kept"
        ]

    def test_telemetry_snapshots_are_not_baselines(self, tmp_path):
        base = tmp_path / "base"
        write_bench(base, timings_seconds={"t": 1.0})
        (base / "BENCH_case.telemetry.json").write_text("{}")
        report = run_ratchet(base, base)
        assert len(report.entries) == 1

    def test_no_baseline_directory_is_a_usage_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            run_ratchet(tmp_path, tmp_path / "nowhere")

    def test_no_baselines_at_all_is_a_usage_error(self, tmp_path):
        empty = tmp_path / "base"
        empty.mkdir()
        with pytest.raises(AnalysisError):
            run_ratchet(tmp_path, empty)

    def test_report_serialises_for_ci(self):
        payload = run_ratchet(REGRESSED, BASELINE).to_dict()
        assert payload["ok"] is False
        assert payload["tolerance"] == DEFAULT_TOLERANCE
        statuses = {e["status"] for e in payload["entries"]}
        assert "regressed" in statuses

    def test_render_names_the_verdict(self):
        text = run_ratchet(REGRESSED, BASELINE).render()
        assert "FAIL" in text
        assert "regressed" in text
        assert run_ratchet(BASELINE, BASELINE).render().endswith("OK")


class TestCommittedBenchmarkBaselines:
    def test_repo_baselines_pass_against_themselves(self):
        results = Path(__file__).resolve().parents[2] / (
            "benchmarks/results"
        )
        report = run_ratchet(results, results)
        assert report.ok
        assert report.entries  # BENCH_er_scale carries real metrics


class TestOrphanBaselines:
    def test_named_baselines_are_not_orphans(self, tmp_path):
        base = tmp_path / "results"
        write_bench(base, name="BENCH_alpha", timings_seconds={"t": 1.0})
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        (benches / "bench_alpha.py").write_text(
            'emit("BENCH_alpha", "...")\n', encoding="utf-8"
        )
        assert orphan_baselines(base, benches) == []

    def test_unreferenced_baseline_is_flagged(self, tmp_path):
        base = tmp_path / "results"
        write_bench(base, name="BENCH_alpha", timings_seconds={"t": 1.0})
        write_bench(base, name="BENCH_ghost", timings_seconds={"t": 1.0})
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        (benches / "bench_alpha.py").write_text(
            'emit("BENCH_alpha", "...")\n', encoding="utf-8"
        )
        assert orphan_baselines(base, benches) == ["BENCH_ghost.json"]

    def test_telemetry_snapshots_are_ignored(self, tmp_path):
        base = tmp_path / "results"
        base.mkdir()
        (base / "BENCH_ghost.telemetry.json").write_text("{}")
        benches = tmp_path / "benchmarks"
        benches.mkdir()
        assert orphan_baselines(base, benches) == []

    def test_missing_benchmarks_dir_is_a_usage_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            orphan_baselines(tmp_path, tmp_path / "nowhere")

    def test_repo_baselines_all_have_generating_benchmarks(self):
        repo = Path(__file__).resolve().parents[2]
        assert orphan_baselines(
            repo / "benchmarks/results", repo / "benchmarks"
        ) == []
