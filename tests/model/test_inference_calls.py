"""Call-count guards for the load path (machine-independent).

Typing used to run five or six times per cell (``Schema.from_rows``,
then ``Record.of`` → ``Value.of``, then ``infer_schema``, then the
profiler, then the matcher once per *target* attribute), and each run
pushed every non-date string through seven ``strptime`` formats.  These
tests pin the fix by counting calls, not seconds: one ``infer_type`` per
distinct string per column per pass, and no ``strptime`` at all for a
string the date shape grammar rejects.
"""

import datetime as _dt
import importlib.util
import types
from pathlib import Path

import pytest

import repro.model.schema as schema_module
import repro.model.values as values_module
from repro.datagen import TARGET_SCHEMA, generate_world
from repro.matching.schema_matching import SchemaMatcher
from repro.model.records import Table
from repro.model.schema import DataType

QUICKSTART = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"


@pytest.fixture
def typed(monkeypatch):
    """Every value handed to ``infer_type`` while the test runs."""
    seen = []
    real = schema_module.infer_type

    def spy(value):
        seen.append(value)
        return real(value)

    monkeypatch.setattr(schema_module, "infer_type", spy)
    monkeypatch.setattr(values_module, "infer_type", spy)
    return seen


@pytest.fixture
def parsed(monkeypatch):
    """Every string handed to ``strptime`` by the schema module."""
    texts = []

    class _InstanceOfDatetime(type):
        def __instancecheck__(cls, obj):
            return isinstance(obj, _dt.datetime)

    class SpyDatetime(metaclass=_InstanceOfDatetime):
        @staticmethod
        def strptime(text, fmt):
            texts.append(text)
            return _dt.datetime.strptime(text, fmt)

    monkeypatch.setattr(
        schema_module, "_dt", types.SimpleNamespace(date=_dt.date, datetime=SpyDatetime)
    )
    return texts


def _source_rows(n_rows):
    world = generate_world(n_products=400, n_sources=3, seed=2016)
    rows = max(world.source_rows.values(), key=len)[:n_rows]
    assert len(rows) == n_rows
    return rows


def _distinct_strings(rows):
    """Per column: how many distinct strings, how many other non-null cells."""
    strings, others = 0, 0
    for name in dict.fromkeys(name for row in rows for name in row):
        column = [row.get(name) for row in rows]
        strings += len({v for v in column if isinstance(v, str) and v.strip()})
        others += sum(v is not None and not isinstance(v, str) for v in column)
    return strings, others


class TestOnePassPerColumn:
    def test_loading_types_each_distinct_string_once_per_pass(self, typed):
        rows = _source_rows(200)
        strings, others = _distinct_strings(rows)
        cells = sum(v is not None for row in rows for v in row.values())
        # The bound bites: the source repeats values (brands, categories,
        # dates), so per-distinct is well under per-cell.
        assert strings + others < 0.8 * cells

        del typed[:]  # generating the world types its own tables
        table = Table.from_rows("retailer", rows)
        loaded = list(typed)
        assert sum(isinstance(v, str) for v in loaded) == strings
        assert len(loaded) == strings + others

        # Re-voting the schema is a second pass over the stored raws: it
        # may type each distinct string once more, and nothing else.
        del typed[:]
        table.infer_schema()
        assert sum(isinstance(v, str) for v in typed) <= strings
        assert len(typed) <= strings + others

    def test_rejected_shapes_never_reach_strptime(self, typed, parsed):
        rows = _source_rows(200)
        del typed[:], parsed[:]
        Table.from_rows("retailer", rows).infer_schema()
        assert parsed, "the generated source carries dates"
        assert all(schema_module._DATE_SHAPE.fullmatch(t.strip()) for t in parsed)
        # One parse per distinct date string per pass (two passes); the
        # other strings cost a regex miss.
        dates = {
            v for row in rows for v in row.values()
            if isinstance(v, str) and schema_module.infer_type(v) is DataType.DATE
        }
        assert len(dates) < len(parsed) <= 3 * 2 * len(dates)
        assert len(parsed) < sum(isinstance(v, str) for v in typed)

    def test_matcher_samples_each_source_column_once(self, typed):
        table = Table.from_rows("retailer", _source_rows(60))
        columns = [n for n in table.schema.names if not n.startswith("_")]
        del typed[:]
        matcher = SchemaMatcher()
        matcher.match(table, TARGET_SCHEMA)
        per_match = len(typed)
        # At most the 50-value sample of each source column, typed once
        # whatever the number of target attributes (it was once per
        # STRING-typed target).
        assert 0 < per_match <= 50 * len(columns)
        del typed[:]
        for name in columns:
            matcher.score_pair(table, name, TARGET_SCHEMA.attributes[0])
        assert len(typed) == per_match


class TestWholeRunBudget:
    def test_quickstart_run_stays_under_the_pinned_total(self, typed, parsed):
        spec = importlib.util.spec_from_file_location("quickstart_plan", QUICKSTART)
        quickstart = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(quickstart)
        world = generate_world(n_products=60, n_sources=6, seed=2016)
        source_rows = sum(len(rows) for rows in world.source_rows.values())
        wrangler = quickstart.build_wrangler(world)
        del typed[:], parsed[:]

        result = wrangler.run()

        assert len(result.table) > 0
        # 33 calls per source row at this change (79 before it: every
        # layer re-typed every cell).  The pin leaves room for a pass,
        # not for a return to per-cell typing.
        assert len(typed) <= 40 * source_rows
        assert all(schema_module._DATE_SHAPE.fullmatch(t.strip()) for t in parsed)
        assert len(parsed) < 0.2 * len(typed)


CARRIED_WORK = Path(__file__).resolve().parents[1] / "core" / "test_carried_work.py"


class TestDeltaTick:
    def test_a_delta_tick_types_only_its_appended_rows(self, tmp_path, monkeypatch):
        """A 5-row refresh tick types on its acquire path at most each
        distinct string of the five appended rows once (it used to type
        the whole file twice: the delta read built a table, the schema
        vote typed the view again); its instance samples did not move, so
        its match is cut off and no column is sampled."""
        spec = importlib.util.spec_from_file_location("carried_work", CARRIED_WORK)
        carried_work = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(carried_work)
        script = carried_work.RefreshScript(tmp_path, n_products=200)
        wrangler = script.wrangler
        name = script.result.plan.sources[0]
        appended = script.held_back[name][:5]
        reused = wrangler.telemetry.metrics.counter("matching.reused").value

        typed, sampled, acquiring = [], [], []
        real_type = schema_module.infer_type
        real_extract = type(wrangler)._extract
        real_sample = SchemaMatcher._instance_sample

        def spy_type(value):
            if acquiring:
                typed.append(value)
            return real_type(value)

        def spy_extract(self, *args, **kwargs):
            acquiring.append(True)
            try:
                return real_extract(self, *args, **kwargs)
            finally:
                acquiring.pop()

        def spy_sample(self, *args, **kwargs):
            sampled.append(args)
            return real_sample(self, *args, **kwargs)

        monkeypatch.setattr(schema_module, "infer_type", spy_type)
        monkeypatch.setattr(values_module, "infer_type", spy_type)
        monkeypatch.setattr(type(wrangler), "_extract", spy_extract)
        monkeypatch.setattr(SchemaMatcher, "_instance_sample", spy_sample)

        assert script.tick(0) == name
        assert script.result.ingest["acquisitions"][name]["mode"] == "delta"
        strings = {
            value for row in appended for value in row.values()
            if isinstance(value, str) and value.strip()
        } | {f"{seq:06d}" for seq in range(script.seq - 5, script.seq)}
        assert 0 < len(typed) <= len(strings)
        assert set(typed) <= strings
        assert wrangler.telemetry.metrics.counter("matching.reused").value == reused + 1
        assert sampled == []
