"""Expected plan→cost snapshot over the shipped example plans.

``make cost-check`` and CI run this: every bundled plan must certify
with exactly the committed per-node estimates (no error-severity CC
finding anywhere), and the certifier must be deterministic — two fresh
runs over the unchanged tree produce byte-identical reports.
Regenerate the snapshot after a deliberate cost-model change with::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.analysis.plans import check_paths
    result = check_paths(["examples"])
    snapshot = {
        path: report.to_dict() for path, report in result.reports
    }
    with open("tests/analysis/cost_certification.json", "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\\n")
    PY
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.__main__ import render_cost_json
from repro.analysis.plans import check_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SNAPSHOT = Path(__file__).with_name("cost_certification.json")


@pytest.fixture(scope="module")
def examples_result():
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        yield check_paths(["examples"])
    finally:
        os.chdir(cwd)


class TestExamplesCostCertification:
    def test_matches_committed_snapshot(self, examples_result):
        expected = json.loads(SNAPSHOT.read_text())
        actual = {
            path: report.to_dict()
            for path, report in examples_result.reports
        }
        assert actual == expected

    def test_no_example_plan_is_refused(self, examples_result):
        assert examples_result.ok

    def test_all_five_plans_certified(self, examples_result):
        assert examples_result.checked_plans == 5
        assert all(
            report.estimates
            for _, report in examples_result.reports
        )

    def test_estimates_are_grounded_not_assumed(self, examples_result):
        # The CLI probes before certifying, so bundled examples certify
        # from real memoised row counts, not DEFAULT_ROWS guesses.
        for _, report in examples_result.reports:
            translate = report.estimates.get("translate")
            if translate is not None:
                assert translate.confidence == "exact"

    def test_output_is_byte_identical_across_runs(self, examples_result):
        cwd = os.getcwd()
        os.chdir(REPO_ROOT)
        try:
            again = check_paths(["examples"])
        finally:
            os.chdir(cwd)
        assert render_cost_json(examples_result) == render_cost_json(again)
