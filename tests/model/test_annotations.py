"""Tests for quality annotations and the working-data store."""

import pytest

from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.model.workingdata import WorkingData


class TestQualityAnnotation:
    def test_score_validation(self):
        with pytest.raises(ValueError):
            QualityAnnotation("t", Dimension.ACCURACY, 1.2)
        with pytest.raises(ValueError):
            QualityAnnotation("t", Dimension.ACCURACY, 0.5, confidence=-0.1)

    def test_unique_ids(self):
        a = QualityAnnotation("t", Dimension.ACCURACY, 0.5)
        b = QualityAnnotation("t", Dimension.ACCURACY, 0.5)
        assert a.aid != b.aid


class TestAnnotationStore:
    def test_score_default_when_unknown(self):
        store = AnnotationStore()
        assert store.score("x", Dimension.ACCURACY, default=0.4) == 0.4

    def test_confidence_weighted_mean(self):
        store = AnnotationStore()
        store.add(QualityAnnotation("s", Dimension.ACCURACY, 1.0, confidence=1.0))
        store.add(QualityAnnotation("s", Dimension.ACCURACY, 0.0, confidence=1.0))
        assert store.score("s", Dimension.ACCURACY) == pytest.approx(0.5)
        store.add(QualityAnnotation("s", Dimension.ACCURACY, 1.0, confidence=1.0))
        assert store.score("s", Dimension.ACCURACY) > 0.5

    def test_for_target_filters_by_dimension(self):
        store = AnnotationStore()
        store.add(QualityAnnotation("s", Dimension.ACCURACY, 0.9))
        store.add(QualityAnnotation("s", Dimension.COST, 0.2))
        assert len(store.for_target("s")) == 2
        assert len(store.for_target("s", Dimension.COST)) == 1

    def test_profile_and_targets(self):
        store = AnnotationStore()
        store.add(QualityAnnotation("a", Dimension.TIMELINESS, 0.7))
        store.add(QualityAnnotation("b", Dimension.ACCURACY, 0.9))
        assert store.targets() == ["a", "b"]
        assert store.profile("a") == {Dimension.TIMELINESS: 0.7}

    def test_len_and_iter(self):
        store = AnnotationStore()
        store.add(QualityAnnotation("a", Dimension.ACCURACY, 0.5))
        store.add(QualityAnnotation("b", Dimension.ACCURACY, 0.5))
        assert len(store) == 2
        assert len(list(store)) == 2


class TestWorkingData:
    def test_put_get_require(self):
        wd = WorkingData()
        wd.put("table", "t1", 123)
        assert wd.get("table", "t1") == 123
        assert wd.require("table", "t1") == 123
        assert wd.get("table", "absent", default="d") == "d"
        with pytest.raises(KeyError):
            wd.require("table", "absent")

    def test_put_overwrites(self):
        wd = WorkingData()
        wd.put("table", "t", 1)
        wd.put("table", "t", 2)
        assert wd.get("table", "t") == 2
        assert len(wd) == 1

    def test_remove_present_is_true(self):
        wd = WorkingData()
        wd.put("mapping", "m", None)
        assert wd.remove("mapping", "m") is True
        assert not wd.contains("mapping", "m")

    def test_remove_absent_is_false(self):
        assert WorkingData().remove("x", "y") is False

    def test_keys_by_category_and_items(self):
        wd = WorkingData()
        wd.put("table", "b", 2)
        wd.put("table", "a", 1)
        wd.put("match", "m", 3)
        assert [k.key for k in wd.keys("table")] == ["a", "b"]
        assert dict(wd.items("table")) == {"a": 1, "b": 2}

    def test_summary(self):
        wd = WorkingData()
        wd.put("table", "a", 1)
        wd.put("table", "b", 1)
        wd.put("wrapper", "w", 1)
        assert wd.summary() == {"table": 2, "wrapper": 1}
        assert len(wd) == 3
