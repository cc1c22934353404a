"""Tests for the telemetry schema, validator, and report CLI."""

import json

from repro.obs import ManualClock, Telemetry, validate_telemetry
from repro.obs.report import demo_snapshot, main, render_text


def small_snapshot():
    telemetry = Telemetry(clock=ManualClock())
    telemetry.metrics.counter("events").increment()
    with telemetry.tracer.span("run", stage="fusion"):
        telemetry.clock.advance(0.1)
    return telemetry.snapshot(
        dataflow={
            "fuse": {
                "runs": 1, "hits": 0, "invalidations": 0,
                "seconds": 0.1, "stage": "fusion", "clean": True,
            }
        }
    )


class TestSchema:
    def test_snapshot_is_valid(self):
        assert validate_telemetry(small_snapshot()) == []

    def test_demo_snapshot_is_valid(self):
        assert validate_telemetry(demo_snapshot()) == []

    def test_demo_snapshot_is_deterministic(self):
        assert demo_snapshot() == demo_snapshot()

    def test_rejects_non_object(self):
        assert validate_telemetry([1, 2]) != []

    def test_rejects_wrong_version(self):
        snapshot = small_snapshot()
        snapshot["version"] = 99
        assert any("version" in p for p in validate_telemetry(snapshot))

    def test_rejects_malformed_histogram(self):
        snapshot = small_snapshot()
        snapshot["metrics"]["histograms"] = {"h": {"count": 1}}
        problems = validate_telemetry(snapshot)
        assert any("p95" in p for p in problems)

    def test_rejects_bad_span(self):
        snapshot = small_snapshot()
        snapshot["spans"] = [{"name": 7}]
        assert validate_telemetry(snapshot) != []

    def test_rejects_negative_node_counts(self):
        snapshot = small_snapshot()
        snapshot["dataflow"]["nodes"]["fuse"]["runs"] = -1
        assert any("runs" in p for p in validate_telemetry(snapshot))

    def test_nested_span_problems_are_located(self):
        snapshot = small_snapshot()
        snapshot["spans"][0]["children"] = [{"name": "x"}]
        problems = validate_telemetry(snapshot)
        assert any("children[0]" in p for p in problems)


class TestRenderText:
    def test_contains_every_section(self):
        text = render_text(small_snapshot())
        assert "-- metrics --" in text
        assert "-- spans --" in text
        assert "-- dataflow --" in text
        assert "run" in text
        assert "fuse" in text and "stage=fusion" in text


class TestCli:
    def test_demo_json_is_schema_valid(self, capsys):
        assert main(["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_telemetry(payload) == []

    def test_renders_file(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(small_snapshot()))
        assert main([str(path)]) == 0
        assert "-- dataflow --" in capsys.readouterr().out

    def test_validate_only(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(small_snapshot()))
        assert main([str(path), "--validate-only"]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_payload_exits_1(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps({"schema": "wrong"}))
        assert main([str(path)]) == 1
        assert "schema:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "telemetry.json"
        path.write_text("{not json")
        assert main([str(path)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_committed_snapshot_with_parallel_key_still_validates(
        self, tmp_path, capsys
    ):
        # Snapshots committed by earlier versions carry per-node
        # ``parallel``, ``purity`` and ``cost`` keys nothing writes any
        # more; unknown node keys are ignored, so they keep validating.
        snapshot = small_snapshot()
        snapshot["dataflow"]["nodes"]["fuse"].update(
            parallel="sequential", purity="pure", cost=0.0042
        )
        assert validate_telemetry(snapshot) == []
        path = tmp_path / "telemetry.json"
        path.write_text(json.dumps(snapshot))
        assert main([str(path), "--validate-only"]) == 0
        assert "valid" in capsys.readouterr().out
