"""Tests for WADaR-style joint wrapper and data repair."""

import random

import pytest

from repro.context.data_context import DataContext
from repro.datagen.htmlgen import random_listings, render_site
from repro.datagen.ontologies import product_ontology
from repro.extraction.repair import WrapperRepairer
from repro.extraction.wrapper import FieldRule, Wrapper
from repro.model.schema import DataType


@pytest.fixture(scope="module")
def messy_site():
    return render_site(
        "messyshop", random_listings(25, random.Random(3)), template="messy"
    )


@pytest.fixture()
def context():
    return DataContext("products").with_ontology(product_ontology())


class TestDiagnosis:
    def test_validity_spots_unsegmented_price(self, messy_site, context):
        # A naive wrapper that reads the whole desc blob as the price.
        wrapper = Wrapper(
            "messyshop",
            ("li.offer",),
            (
                FieldRule("product", ("span.desc",)),
                FieldRule("price", ("span.desc",), dtype=DataType.CURRENCY),
            ),
        )
        repairer = WrapperRepairer(context)
        table = wrapper.extract(messy_site.documents())
        validity = repairer.validity(table)
        assert validity["price"] < 0.3
        assert validity["product"] == 1.0  # strings are always type-valid

    def test_expected_dtype_prefers_ontology(self, context):
        repairer = WrapperRepairer(context)
        assert repairer.expected_dtype("price", DataType.STRING) is DataType.CURRENCY
        assert repairer.expected_dtype("mystery", DataType.FLOAT) is DataType.FLOAT


class TestRepair:
    def test_segmentation_repair_attaches_recogniser(self, messy_site, context):
        wrapper = Wrapper(
            "messyshop",
            ("li.offer",),
            (
                FieldRule("product", ("span.desc",)),
                FieldRule("price", ("span.desc",), dtype=DataType.CURRENCY),
            ),
        )
        repairer = WrapperRepairer(context)
        repaired, table, report = repairer.repair(wrapper, messy_site.documents())
        before, after = report.validity_before, report.validity_after
        assert sum(after.values()) / len(after) > sum(before.values()) / len(before)
        assert any(a.kind == "segment" and a.attribute == "price" for a in report.actions)
        assert repaired.rule_for("price").recogniser_name == "price"
        prices = [r.raw("price") for r in table if r.raw("price") is not None]
        assert prices and all(isinstance(p, float) for p in prices)
        assert report.validity_after["price"] > report.validity_before["price"]

    def test_swap_repair(self, context):
        # Build a site where a wrapper swapped price and updated columns.
        listings = random_listings(20, random.Random(5))
        site = render_site("swapshop", listings, template="grid")
        swapped = Wrapper(
            "swapshop",
            ("div.product",),
            (
                FieldRule("price", ("span.date",), dtype=DataType.CURRENCY),
                FieldRule("updated", ("span.price",), dtype=DataType.DATE),
            ),
        )
        repairer = WrapperRepairer(context)
        repaired, table, report = repairer.repair(swapped, site.documents())
        assert any(a.kind == "swap" for a in report.actions)
        assert report.validity_after["price"] > report.validity_before["price"]
        assert report.validity_after["updated"] > report.validity_before["updated"]

    def test_clean_wrapper_untouched(self, context):
        listings = random_listings(20, random.Random(6))
        site = render_site("cleanshop", listings, template="grid")
        wrapper = Wrapper(
            "cleanshop",
            ("div.product",),
            (
                FieldRule("product", ("h2.title",)),
                FieldRule("price", ("span.price",), recogniser_name="price",
                          dtype=DataType.CURRENCY),
            ),
        )
        repairer = WrapperRepairer(context)
        repaired, __, report = repairer.repair(wrapper, site.documents())
        assert repaired.rules == wrapper.rules
        assert not [a for a in report.actions if a.kind != "value"]

    def test_value_repair_marks_provenance(self, messy_site, context):
        # No recogniser on the rule, min_validity too low to trigger a
        # wrapper repair: the value repair path must still fix the data.
        wrapper = Wrapper(
            "messyshop",
            ("li.offer",),
            (FieldRule("price", ("span.desc",), dtype=DataType.CURRENCY),),
        )
        repairer = WrapperRepairer(context, min_validity=0.0)
        __, table, report = repairer.repair(wrapper, messy_site.documents())
        assert any(a.kind == "value" for a in report.actions)
        fixed = [r["price"] for r in table if r.raw("price") is not None]
        assert fixed
        from repro.model.provenance import Step
        assert any(v.provenance.step is Step.REPAIR for v in fixed)
