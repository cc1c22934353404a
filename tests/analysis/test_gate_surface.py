"""The gate's surface is what a ``Wrangler`` hands it, and the rule
catalogues are what ``docs/ANALYSIS.md`` documents.

Three things nothing else checks: a parameter of ``run_preflight`` that
``Wrangler._compose`` does not pass can only be set by a test, the
catalogues' "mirrored in docs/ANALYSIS.md" is a promise, and so is the
retirement table's "one row per rule arm ``tools/gate_draws.py``
tallies".
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

from conftest import gate_draws, load_tool
from repro.analysis.cost import COST_RULES
from repro.analysis.typecheck import TYPECHECK_RULES, run_preflight
from repro.analysis.validator import VALIDATOR_RULES
from repro.core.wrangler import Wrangler

ANALYSIS_MD = Path(__file__).resolve().parents[2] / "docs" / "ANALYSIS.md"

GATE_PARAMETERS = [
    "plan", "user", "data", "registry", "working",
    "master_key", "date_attribute",
]

RETIRED = {
    "PV001", "PV002", "PV003", "PV004", "PV005",
    "TC002", "TC003", "TC004", "TC005", "TC006", "TC010",
    "CC001", "CC002", "CC003", "CC005", "CC007", "CC008", "CC009", "CC010",
}


def composed_keywords():
    """The keywords of the one ``run_preflight(...)`` call in
    ``Wrangler._compose``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(Wrangler._compose)))
    (call,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "run_preflight"
    ]
    assert not call.args
    return [keyword.arg for keyword in call.keywords]


class TestGateParameters:
    def test_run_preflight_takes_exactly_what_compose_passes(self):
        parameters = list(inspect.signature(run_preflight).parameters)
        assert parameters == GATE_PARAMETERS
        assert composed_keywords() == GATE_PARAMETERS


class TestCataloguesAreMirroredInTheDocs:
    def table_rows(self):
        """Rule ids that open a table row: ``| `REP001` | ...``."""
        return set(
            re.findall(
                r"^\| `([A-Z]{2,3}\d{3})` ", ANALYSIS_MD.read_text(), re.M
            )
        )

    def test_every_live_rule_has_a_table_row(self):
        live = {
            *VALIDATOR_RULES, *TYPECHECK_RULES, *COST_RULES,
            *load_tool("lint").RULES,
        }
        assert live == self.table_rows()

    def test_retired_rules_appear_only_in_retirement_notes(self):
        assert not RETIRED & self.table_rows()
        paragraphs = ANALYSIS_MD.read_text().split("\n\n")
        for rule_id in sorted(RETIRED):
            naming = [p for p in paragraphs if rule_id in p]
            assert naming, f"{rule_id}: retirement is not recorded"
            for paragraph in naming:
                assert "retired" in paragraph, (rule_id, paragraph)


class TestRetirementTable:
    def test_one_row_per_tallied_arm(self):
        """The table is ``make gate-draws N=500``'s output: one row per
        arm, in :data:`ARMS` order, over 500 draws; a retired arm fires
        on none of them."""
        rows = re.findall(
            r"^\| ([A-Z]{2}\d{3} [^|]+) \| (\d+) \| (\d+) \| ([^|]+) \|",
            ANALYSIS_MD.read_text(),
            re.M,
        )
        assert [name for name, *_ in rows] == [
            f"{arm.rule} {arm.arm}" for arm in gate_draws.ARMS
        ]
        for (name, draws, fired, verdict), arm in zip(rows, gate_draws.ARMS):
            assert draws == "500", name
            assert verdict.startswith("stays" if arm.live else "retired")
            if not arm.live:
                assert fired == "0", name
