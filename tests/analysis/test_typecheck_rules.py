"""The type rules: every surviving TC rule fired by a defect a user can
write, through ``Wrangler.preflight()``, and every retired rule's defect
absent from composed plans (the ``draws`` fixture).

Each surviving rule leaves a column of the wrangled table unfed or
misread and is reported before any source is fully accessed.
"""

from conftest import TARGET, assert_never_fires
from repro.analysis.diagnostics import Severity
from repro.analysis.typecheck import TYPECHECK_RULES
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.resilience.chaos import ChaosSource, FaultPlan
from repro.sources.memory import MemorySource

#: Rows with no date column: nothing feeds the target's ``updated``.
ROWS = [
    {"product": "anvil", "price": "$12.00"},
    {"product": "rope", "price": "$3.50"},
]

#: Recency fusion (timeliness dominates) over every source (completeness
#: carries at least 0.3 of the weight under an unbounded budget).
TIMELY = {
    Dimension.TIMELINESS: 0.5,
    Dimension.COMPLETENESS: 0.4,
    Dimension.ACCURACY: 0.1,
}


def preflight(
    *sources, schema=TARGET, weights=TIMELY, budget=float("inf"), **options
):
    """The gate's findings for a wrangler over ``sources``."""
    wrangler = Wrangler(
        UserContext("u", schema, weights=weights, budget=budget),
        DataContext(),
        **options,
    )
    for source in sources:
        wrangler.add_source(source)
    return wrangler.preflight().diagnostics


def shop(rows=ROWS):
    return MemorySource("shop", rows)


def dead():
    return ChaosSource(MemorySource("dead", ROWS), FaultPlan(dead=True))


def fired(findings, rule_id):
    return [d for d in findings if d.rule == rule_id]


class TestSourceSchemaRules:
    def test_tc001_selected_source_without_schema_warns(self):
        findings = preflight(shop(), dead())
        (finding,) = fired(findings, "TC001")
        assert finding.severity is Severity.WARNING
        assert finding.location.node == "dead"

    def test_tc001_silent_when_schema_known(self):
        assert not fired(preflight(shop()), "TC001")

    def test_tc002_mapping_reads_missing_attribute(self, draws):
        """TC002 is retired: a probe mapping is built from the sample's
        own columns."""
        assert_never_fires(
            draws, "TC002", "mapping reads an attribute the probe schema lacks"
        )


class TestCoercibilityRules:
    def test_tc003_never_coercible_correspondence(self, draws):
        """TC003 is retired: the matcher never pairs types no value can
        cross."""
        assert_never_fires(draws, "TC003", "matched types never coerce")

    def test_tc004_transform_outside_its_input_domain(self, draws):
        """TC004 is retired with the transforms' declared domains: the
        probe's bootstrap mappings carry no transform to mistype."""
        assert_never_fires(
            draws, "TC004", "probe mapping carries a transform to mistype"
        )


class TestResolutionRules:
    def test_tc005_er_attribute_missing_from_schema(self, draws):
        """TC005 is retired: the planner takes ``er_attributes`` from the
        target schema."""
        assert_never_fires(draws, "TC005", "ER attribute absent from the target")

    def test_tc006_er_keyed_on_transient_type(self, draws):
        """TC006 is retired: the planner leaves transient types out of
        ``er_attributes``."""
        assert_never_fires(draws, "TC006", "ER keyed on a transient type")


class TestFusionRules:
    def test_tc007_override_on_unproduced_attribute(self, draws):
        """TC007's override arm is retired: no composed median override
        lands on an attribute the probe mappings leave unfed."""
        assert_never_fires(
            draws, "TC007", "override on an attribute no mapping produces"
        )

    def test_tc007_unproduced_recency_attribute_warns(self):
        # The target's ``updated`` keys recency, but no source has dates.
        (finding,) = fired(preflight(shop()), "TC007")
        assert finding.severity is Severity.WARNING
        assert finding.location.node == "date_attribute.updated"

    def test_tc007_silent_without_full_probe_coverage(self):
        # Source "dead" was planned but never probed: the produced set is
        # an under-approximation, so the rule must stay quiet.
        assert not fired(preflight(shop(), dead()), "TC007")

    def test_tc008_median_default_with_no_numeric_attribute(self, draws):
        """TC008's domain arm is retired: the planner's default strategy
        is never median."""
        assert_never_fires(
            draws, "TC008", "default strategy's value domain unsatisfiable"
        )

    def test_tc008_recency_keyed_on_non_date_attribute(self):
        findings = preflight(shop(), date_attribute="product")
        (finding,) = fired(findings, "TC008")
        assert finding.severity is Severity.ERROR
        assert "product" in finding.message

    def test_tc009_required_attribute_unproduced(self):
        schema = Schema(
            (
                Attribute("product", DataType.STRING, required=True),
                Attribute("warranty", DataType.GEO, required=True),
                Attribute("price", DataType.CURRENCY),
            )
        )
        (finding,) = fired(preflight(shop(), schema=schema), "TC009")
        assert finding.severity is Severity.WARNING
        assert finding.location.node == "warranty"


class TestCheckerMechanics:
    def test_clean_plan_has_no_findings(self):
        rows = [dict(row, updated="2016-03-15") for row in ROWS]
        # A budget, so the spend is bounded (no CC006 note either).
        findings = preflight(shop(rows), budget=10.0)
        assert not findings, [d.render() for d in findings]

    def test_every_tc_rule_is_catalogued(self):
        assert set(TYPECHECK_RULES) == {"TC001", "TC007", "TC008", "TC009"}
        for rule in TYPECHECK_RULES.values():
            assert rule.description
