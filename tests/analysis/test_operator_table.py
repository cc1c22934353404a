"""The operator table is complete and agrees with the wrangler's dataflow.

One row per node kind ``Wrangler._build_flow`` emits, carrying the stage
label the dataflow node itself carries; the canonical fallback shape is
that same graph; and ``input`` — the one kind with a schema half only —
still surfaces as ``CC009``.
"""

from types import SimpleNamespace

from repro import DataContext, UserContext, Wrangler
from repro.analysis.cost import check_plan_cost
from repro.analysis.typecheck import OPERATORS
from repro.analysis.typecheck.operators import topology
from repro.core.dataflow import Dataflow
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemoryDocumentSource, MemorySource

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
    )
)


def mixed_flow():
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext())
    wrangler.add_source(
        MemorySource("shop", [{"product": "anvil", "price": "$12.00"}])
    )
    wrangler.add_source(
        MemoryDocumentSource(
            "site", [("http://site/1", "<html><body>anvil</body></html>")]
        )
    )
    return wrangler.flow


class TestTableCompleteness:
    def test_every_built_node_kind_has_one_row_with_its_stage(self):
        stats = mixed_flow().node_stats()
        kinds = {name.partition(":")[0] for name in stats}
        assert kinds <= set(OPERATORS)
        assert all(OPERATORS[kind].kind == kind for kind in kinds)
        for name, node in stats.items():
            assert OPERATORS[name.partition(":")[0]].stage == node["stage"]

    def test_canonical_shape_is_the_graph_build_flow_composes(self):
        flow = mixed_flow()
        order, dependencies = topology(None, ["shop", "site"])
        assert dependencies == flow.dependency_map()
        assert sorted(order) == sorted(flow.nodes())

    def test_input_kind_has_a_schema_half_only_and_yields_cc009(self):
        row = OPERATORS["input"]
        assert row.stage == "input"
        assert row.estimate is None
        flow = Dataflow()
        flow.add_input("feedback", value=[])
        report = check_plan_cost(
            plan=SimpleNamespace(sources=[]), dataflow=flow
        )
        (finding,) = report.findings
        assert finding.rule == "CC009"
        assert finding.location.node == "feedback"
        assert report.estimates["feedback"].confidence == "assumed"
