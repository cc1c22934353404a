"""The stage map and the pipeline shape are the one declaration.

``pipeline_shape`` spells the wiring (pinned here as a literal, in
insertion order); every kind it emits has one ``STAGES`` entry and one
``Wrangler._stage_<kind>`` body, and vice versa; each node of the
dataflow the wrangler composes from it carries its kind's stage label.
"""

from repro import DataContext, UserContext, Wrangler
from repro.core.wrangler import STAGES, pipeline_shape
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
        assert kinds <= set(STAGES)
        for name, node in stats.items():
            assert STAGES[name.partition(":")[0]] == node["stage"]

    def test_pipeline_shape_is_this_literal_in_insertion_order(self):
        shape = pipeline_shape(["shop", "site"])
        expected = {
            "probe": (),
            "plan": ("probe",),
            "acquire:shop": ("plan",),
            "match:shop": ("acquire:shop", "plan"),
            "mapping:shop": ("match:shop", "acquire:shop"),
            "mapped:shop": ("mapping:shop", "acquire:shop"),
            "quality:shop": ("mapped:shop",),
            "acquire:site": ("plan",),
            "match:site": ("acquire:site", "plan"),
            "mapping:site": ("match:site", "acquire:site"),
            "mapped:site": ("mapping:site", "acquire:site"),
            "quality:site": ("mapped:site",),
            "select": (
                "plan", "mapping:shop", "mapping:site",
                "quality:shop", "quality:site",
            ),
            "rank": ("select",),
            "translate": ("rank", "mapped:shop", "mapped:site"),
            "refit": ("translate", "plan"),
            "resolve": ("translate", "plan", "refit"),
            "fuse": ("resolve", "plan", "rank"),
            "repair": ("fuse", "plan"),
        }
        assert shape == expected
        assert list(shape) == list(expected)

    def test_every_emitted_kind_has_a_row_and_a_stage_body_and_back(self):
        emitted = {
            node.partition(":")[0] for node in pipeline_shape(["shop"])
        }
        assert emitted == set(STAGES)
        bodies = {
            name[len("_stage_"):]
            for name in vars(Wrangler)
            if name.startswith("_stage_")
        }
        assert bodies == emitted
