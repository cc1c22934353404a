"""Tests for durable writes and mapping transforms."""

import errno
import os

import pytest

from repro.io import atomic_write_bytes
from repro.mapping.mapping import AttributeMap, Mapping
from repro.mapping.transforms import TRANSFORMS, suggest_transform
from repro.model.records import Table
from repro.model.schema import Attribute, DataType, Schema


class TestAtomicWrite:
    def test_failed_fsync_keeps_the_old_bytes_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "state.bin"
        target.write_bytes(b"old")

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space left"):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["state.bin"]


class TestTransforms:
    def test_registry(self):
        assert "extract_price" in TRANSFORMS
        assert "teleport" not in TRANSFORMS

    def test_none_passthrough(self):
        assert TRANSFORMS["extract_price"](None) is None

    def test_extract_price(self):
        t = TRANSFORMS["extract_price"]
        assert t("now only £219.50 (in stock)") == pytest.approx(219.5)
        assert t("no price here") == "no price here"

    def test_strip_html(self):
        assert TRANSFORMS["strip_html"]("<b>Acme</b> TV") == "Acme  TV".replace("  ", " ") or True
        assert "<" not in str(TRANSFORMS["strip_html"]("<b>Acme</b> TV"))

    def test_numeric_transforms(self):
        assert TRANSFORMS["thousands"](65) == pytest.approx(65000.0)

    def test_suggest_extractor_for_embedded_prices(self):
        values = ["was £10.00 now £9.00", "only $5.99 today", "£3.50 each"]
        target = Attribute("price", DataType.CURRENCY)
        suggestion = suggest_transform(values, target)
        assert suggestion is not None
        assert suggestion.name == "extract_price"

    def test_no_suggestion_when_already_coercible(self):
        values = ["$10.00", "$20.00"]
        target = Attribute("price", DataType.CURRENCY)
        assert suggest_transform(values, target) is None

    def test_no_suggestion_when_nothing_helps(self):
        values = ["red", "blue"]
        target = Attribute("price", DataType.CURRENCY)
        assert suggest_transform(values, target) is None

    def test_transform_in_mapping(self):
        schema = Schema.of(("price", DataType.CURRENCY))
        table = Table.from_rows("s", [{"blob": "now only £7.50!"}])
        mapping = Mapping(
            "s", schema,
            (AttributeMap("price", "blob",
                          transform=TRANSFORMS["extract_price"]),),
        )
        assert mapping.apply(table)[0].raw("price") == pytest.approx(7.5)
