"""The schema-flow type checker: every TC defect class caught by rule id.

Each test seeds one defect the runtime would either crash on deep inside
the pipeline or silently degrade through, and asserts the gate (the
``gate`` fixture: ``run_preflight`` over hand-built artifacts) reports
it — with the right rule id and severity — before any record flows.
"""

from repro.analysis.diagnostics import Severity
from repro.analysis.typecheck import TYPECHECK_RULES
from repro.core.planner import WranglePlan
from repro.mapping.mapping import AttributeMap, Mapping
from repro.model.schema import Attribute, DataType, Schema

TARGET = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
        Attribute("updated", DataType.DATE),
    )
)


class FakeUser:
    """A user-context stand-in carrying only the target schema."""

    def __init__(self, target_schema=TARGET):
        self.target_schema = target_schema


class CurrencyToFloat:
    """A transform stand-in with declared type metadata."""

    name = "currency_to_float"
    input_dtypes = (DataType.CURRENCY, DataType.STRING)
    output_dtype = DataType.FLOAT

    def __call__(self, value):
        return value


def plan_for(*sources, **overrides):
    base = dict(
        sources=list(sources),
        matcher_channels=("name",),
        match_threshold=0.6,
        er_threshold=0.85,
        fusion_strategy="weighted",
    )
    base.update(overrides)
    return WranglePlan(**base)


def shop_artifacts(source_schema, attribute_maps):
    """Probe artifacts for one source named ``shop``."""
    mapping = Mapping("shop", TARGET, tuple(attribute_maps))
    return {"shop": source_schema}, {"shop": mapping}


def fired(findings, rule_id):
    return [d for d in findings if d.rule == rule_id]


class TestSourceSchemaRules:
    def test_tc001_selected_source_without_schema_warns(self, gate):
        findings = gate(
            plan=plan_for("shop"), user=FakeUser(), schemas={}
        ).diagnostics
        (finding,) = fired(findings, "TC001")
        assert finding.severity is Severity.WARNING
        assert "shop" in finding.message

    def test_tc001_silent_when_schema_known(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of("product"), [AttributeMap("product", "product")]
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        assert not fired(findings, "TC001")

    def test_tc002_mapping_reads_missing_attribute(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of("product"), [AttributeMap("price", "cost")]
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        (finding,) = fired(findings, "TC002")
        assert finding.severity is Severity.ERROR
        assert "cost" in finding.message
        assert finding.location.node == "shop.cost"


class TestCoercibilityRules:
    def test_tc003_never_coercible_correspondence(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of(("in_stock", DataType.BOOLEAN)),
            [AttributeMap("price", "in_stock")],
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        (finding,) = fired(findings, "TC003")
        assert finding.severity is Severity.ERROR
        assert "boolean" in finding.message and "currency" in finding.message

    def test_tc003_silent_when_a_transform_intervenes(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of(("in_stock", DataType.BOOLEAN)),
            [AttributeMap("price", "in_stock", transform=CurrencyToFloat())],
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        assert not fired(findings, "TC003")

    def test_tc004_transform_outside_its_input_domain(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of(("in_stock", DataType.BOOLEAN)),
            [AttributeMap("price", "in_stock", transform=CurrencyToFloat())],
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        findings = fired(findings, "TC004")
        assert findings and findings[0].severity is Severity.ERROR
        assert "currency_to_float" in findings[0].message

    def test_tc004_transform_output_never_reaches_target(self, gate):
        dated_target = Schema(
            (Attribute("product", DataType.STRING), Attribute("when", DataType.DATE))
        )
        mapping = Mapping(
            "shop",
            dated_target,
            (AttributeMap("when", "price", transform=CurrencyToFloat()),),
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(dated_target),
            schemas={"shop": Schema.of(("price", DataType.CURRENCY))},
            mappings={"shop": mapping},
        ).diagnostics
        (finding,) = fired(findings, "TC004")
        assert "float" in finding.message and "date" in finding.message


class TestResolutionRules:
    def test_tc005_er_attribute_missing_from_schema(self, gate):
        findings = gate(
            plan=plan_for("shop", er_attributes=("colour",)),
            user=FakeUser(),
        ).diagnostics
        (finding,) = fired(findings, "TC005")
        assert finding.severity is Severity.ERROR
        assert "colour" in finding.message

    def test_tc006_er_keyed_on_transient_type(self, gate):
        findings = gate(
            plan=plan_for("shop", er_attributes=("updated",)),
            user=FakeUser(),
        ).diagnostics
        (finding,) = fired(findings, "TC006")
        assert finding.severity is Severity.ERROR
        assert "updated" in finding.message


class TestFusionRules:
    def test_tc007_override_on_unproduced_attribute(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of("product"), [AttributeMap("product", "product")]
        )
        findings = gate(
            plan=plan_for("shop", fusion_overrides={"price": "median"}),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        (finding,) = fired(findings, "TC007")
        assert finding.severity is Severity.ERROR
        assert finding.location.node == "fusion_overrides.price"

    def test_tc007_unproduced_recency_attribute_warns(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of("product"), [AttributeMap("product", "product")]
        )
        findings = gate(
            plan=plan_for("shop", fusion_strategy="recent"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
            date_attribute="updated",
        ).diagnostics
        warnings = [
            d for d in fired(findings, "TC007")
            if d.severity is Severity.WARNING
        ]
        assert warnings and "updated" in warnings[0].message

    def test_tc007_silent_without_full_probe_coverage(self, gate):
        # Source "other" was planned but never probed: the produced set is
        # an under-approximation, so the rule must stay quiet.
        schemas, mappings = shop_artifacts(
            Schema.of("product"), [AttributeMap("product", "product")]
        )
        findings = gate(
            plan=plan_for("shop", "other", fusion_overrides={"price": "median"}),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        assert not fired(findings, "TC007")

    def test_tc008_median_default_with_no_numeric_attribute(self, gate):
        text_only = Schema(
            (
                Attribute("product", DataType.STRING, required=True),
                Attribute("brand", DataType.STRING),
            )
        )
        findings = gate(
            plan=plan_for("shop", fusion_strategy="median"),
            user=FakeUser(text_only),
        ).diagnostics
        (finding,) = fired(findings, "TC008")
        assert finding.severity is Severity.ERROR
        assert "median" in finding.message

    def test_tc008_recency_keyed_on_non_date_attribute(self, gate):
        findings = gate(
            plan=plan_for("shop", fusion_strategy="recent"),
            user=FakeUser(),
            date_attribute="product",
        ).diagnostics
        (finding,) = fired(findings, "TC008")
        assert "product" in finding.message

    def test_tc009_required_attribute_unproduced(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of(("amount", DataType.CURRENCY)),
            [AttributeMap("price", "amount")],
        )
        findings = gate(
            plan=plan_for("shop"),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        (finding,) = fired(findings, "TC009")
        assert finding.severity is Severity.WARNING
        assert "product" in finding.message


class TestCheckerMechanics:
    def test_clean_plan_has_no_findings(self, gate):
        schemas, mappings = shop_artifacts(
            Schema.of("product", ("price", DataType.CURRENCY),
                      ("updated", DataType.DATE)),
            [
                AttributeMap("product", "product"),
                AttributeMap("price", "price"),
                AttributeMap("updated", "updated"),
            ],
        )
        findings = gate(
            plan=plan_for("shop", er_attributes=("product",)),
            user=FakeUser(),
            schemas=schemas,
            mappings=mappings,
        ).diagnostics
        assert not findings, [str(d) for d in findings]

    def test_walks_a_real_dataflow_topology_when_given(self, gate):
        from repro.core.dataflow import Dataflow

        flow = Dataflow()
        flow.add("probe", lambda inputs: None)
        flow.add("plan", lambda inputs: None, ("probe",))
        flow.add("acquire:shop", lambda inputs: None, ("plan",))
        findings = gate(
            plan=plan_for("shop"), user=FakeUser(), dataflow=flow
        ).diagnostics
        assert fired(findings, "TC001")  # reached via the real graph

    def test_every_tc_rule_is_catalogued(self):
        assert set(TYPECHECK_RULES) == {f"TC{n:03d}" for n in range(1, 10)}
        for rule in TYPECHECK_RULES.values():
            assert rule.description
