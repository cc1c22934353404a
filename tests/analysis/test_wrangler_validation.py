"""Pre-flight validation wired into the Wrangler: every composed plan is gated."""

import pytest

from conftest import assert_never_fires
from repro.context.data_context import DataContext
from repro.context.user_context import UserContext
from repro.core.wrangler import Wrangler, pipeline_shape
from repro.errors import PlanningError, PlanValidationError
from repro.model.annotations import Dimension
from repro.model.schema import Attribute, DataType, Schema
from repro.sources.memory import MemorySource

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
    )
)

ROWS = [
    {"product": "anvil", "price": "12.00"},
    {"product": "rope", "price": "3.50"},
]


def make_wrangler(**kwargs):
    user = UserContext("u", SCHEMA, weights={Dimension.ACCURACY: 1.0})
    wrangler = Wrangler(user, DataContext(), **kwargs)
    wrangler.add_source(MemorySource("shop", ROWS))
    return wrangler


class TestDefaultPreFlight:
    def test_healthy_run_passes_validation(self):
        result = make_wrangler().run()
        assert len(result.table) == 2

    def test_defective_plan_raises_before_execution(self):
        # A master-data key the data context holds no table for.
        wrangler = make_wrangler(master_key="catalog")
        with pytest.raises(PlanValidationError) as failure:
            wrangler.run()
        assert any(d.rule == "PV007" for d in failure.value.diagnostics)
        # Static means static: planning failed before any acquisition.
        assert wrangler.registry.get("shop").accesses < 1.0

    def test_plan_validation_error_is_a_planning_error(self):
        with pytest.raises(PlanningError):
            make_wrangler(master_key="catalog").run()

    def test_missing_master_data_caught_statically(self):
        user = UserContext("u", SCHEMA)
        wrangler = Wrangler(user, DataContext(), master_key="catalog")
        wrangler.add_source(MemorySource("shop", ROWS))
        with pytest.raises(PlanValidationError) as failure:
            wrangler.run()
        assert any(d.rule == "PV007" for d in failure.value.diagnostics)

    def test_planner_never_selects_an_unregistered_source(self, draws):
        """What a substituted planner once tested (PV003): no example,
        benchmark or experiment replaces ``Wrangler.planner``, and the
        autonomic one selects from the registry."""
        assert_never_fires(draws, "PV003", "plan selects an unregistered source")


class TestReplanning:
    def test_invalidated_plan_is_gated_again(self):
        wrangler = make_wrangler()
        wrangler.run()  # a healthy plan, gated and memoised
        wrangler.master_key = "catalog"
        wrangler.flow.invalidate("plan")
        with pytest.raises(PlanValidationError):
            wrangler.run()


class TestBuiltFlowIsValid:
    def test_wrangler_dataflow_passes_graph_checks(self):
        wrangler = make_wrangler()
        order = wrangler.flow.nodes()
        shape = pipeline_shape(wrangler.registry.names())
        assert sorted(order) == sorted(shape)
        for node, dependencies in shape.items():
            for dependency in dependencies:
                assert order.index(dependency) < order.index(node)
