"""Value feedback folded into fused data — the fusion layer on its own.

``EntityFuser.apply_verdicts`` takes what the feedback store's majority
vote rejected (``FeedbackStore.rejected_values``) and rewrites exactly
those cells; everything else comes back untouched, in order.
"""

from repro.feedback.store import FeedbackStore
from repro.feedback.types import ValueFeedback
from repro.fusion.fuse import EntityFuser
from repro.model.provenance import Step
from repro.model.records import Record
from repro.model.schema import Attribute, DataType, Schema
from repro.resolution.er import EntityCluster

SCHEMA = Schema(
    (
        Attribute("product", DataType.STRING, required=True),
        Attribute("price", DataType.CURRENCY),
        Attribute("colour", DataType.STRING),
    )
)


def claim(source, price, product="Acme TV"):
    return Record.of({"product": product, "price": price}, source=source)


CLUSTERS = [
    EntityCluster(
        "tv", [claim("good", 399.0), claim("bad", 39.0), claim("worse", 39.5)]
    ),
    EntityCluster("radio", [claim("good", 20.0, "Acme Radio")]),
    EntityCluster("lamp", [claim("bad", 7.0, "Acme Lamp")]),
]


def fused_world():
    fuser = EntityFuser(
        SCHEMA, reliabilities={"good": 0.95, "bad": 0.3, "worse": 0.2}
    )
    return fuser, fuser.fuse(CLUSTERS)


def verdicts(*items):
    """``rejected_values()`` of a store holding ``(entity, attribute,
    is_correct, correction)`` judgments."""
    store = FeedbackStore()
    for entity, attribute, is_correct, correction in items:
        store.add(ValueFeedback(
            entity=entity, attribute=attribute,
            is_correct=is_correct, correction=correction,
        ))
    return store.rejected_values()


class TestApplyVerdicts:
    def test_no_rejection_returns_the_fused_table_itself(self):
        fuser, fused = fused_world()
        assert fuser.apply_verdicts(fused, CLUSTERS, {}) is fused

    def test_most_common_correction_wins(self):
        fuser, fused = fused_world()
        rejections = verdicts(
            ("tv", "price", False, 389.0),
            ("tv", "price", False, 379.0),
            ("tv", "price", False, 389.0),
            ("tv", "price", False, None),
        )
        cell = fuser.apply_verdicts(fused, CLUSTERS, rejections)[0]["price"]
        assert cell.raw == 389.0
        assert cell.provenance.step is Step.FEEDBACK
        assert cell.provenance.ref == "user-correction"
        assert cell.provenance.inputs == (fused[0]["price"].provenance,)

    def test_rejection_without_correction_refuses_from_remaining_claims(self):
        fuser, fused = fused_world()
        assert fused[0].raw("price") == 399.0
        rejections = verdicts(("tv", "price", False, None))
        cell = fuser.apply_verdicts(fused, CLUSTERS, rejections)[0]["price"]
        # 399.0 is excluded; "bad" (0.3) outweighs "worse" (0.2).
        assert cell.raw == 39.0
        assert cell.provenance.step is Step.FEEDBACK
        assert cell.provenance.ref == "rejected-value"

    def test_rejection_with_no_other_claim_leaves_the_cell(self):
        fuser, fused = fused_world()
        rejections = verdicts(("radio", "price", False, None))
        out = fuser.apply_verdicts(fused, CLUSTERS, rejections)
        assert out[1] is fused[1]

    def test_a_tied_vote_is_not_a_rejection(self):
        fuser, fused = fused_world()
        rejections = verdicts(
            ("tv", "price", False, 1.0), ("tv", "price", True, None)
        )
        assert rejections == {}
        assert fuser.apply_verdicts(fused, CLUSTERS, rejections) is fused

    def test_a_missing_current_cell_and_an_unknown_attribute_are_skipped(self):
        fuser, fused = fused_world()
        assert fused[0].get("colour").is_missing
        rejections = verdicts(
            ("tv", "colour", False, "black"),
            ("tv", "weight", False, 3.0),
            ("nobody", "price", False, 1.0),
        )
        out = fuser.apply_verdicts(fused, CLUSTERS, rejections)
        assert [new is old for new, old in zip(out, fused)] == [True] * 3

    def test_record_order_is_kept_and_untouched_records_are_identical(self):
        fuser, fused = fused_world()
        rejections = verdicts(("radio", "price", False, 25.0))
        out = fuser.apply_verdicts(fused, CLUSTERS, rejections)
        assert [record.rid for record in out] == ["tv", "radio", "lamp"]
        assert out[0] is fused[0] and out[2] is fused[2]
        assert out[1].raw("price") == 25.0
        assert out[1]["product"] is fused[1]["product"]
        assert fused[1].raw("price") == 20.0      # the input is not mutated
