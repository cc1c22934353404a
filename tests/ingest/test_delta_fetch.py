"""Cursors, watermarks, and the delta-fetch protocol on real sources.

The contract under test: ``fetch_delta(watermark)`` charges the access
ledger for the rows it actually moves (floored at
:data:`~repro.sources.cursor.DELTA_COST_FLOOR`), ``merge_delta``
reconstructs the full current view byte-for-byte or refuses (returns
``None``) when an edit slipped behind the cursor, and memoised size
hints go stale the moment the backing content changes.
"""

import pytest

import repro.sources.base
import repro.sources.cursor
from repro.errors import InjectedCrashError
from repro.ingest.checkpoint import CheckpointStore
from repro.ingest.incremental import acquire_durable, merge_delta
from repro.model.workingdata import row_digest
from repro.resilience.chaos import ChaosSource, FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.resilience.wrap import AccessGuard
from repro.sources.cursor import (
    DELTA_COST_FLOOR,
    Watermark,
    cursor_after,
    watermark_for,
)
from repro.sources.files import CSVSource, file_token
from repro.sources.memory import MemorySource

BASE_ROWS = [
    {"product": "laptop", "price": 999.0, "seq": 1},
    {"product": "phone", "price": 499.0, "seq": 2},
    {"product": "tablet", "price": 349.0, "seq": 3},
]


def make_source(rows=BASE_ROWS, cursor="seq", cost=1.0):
    return MemorySource("feed", rows, cost_per_access=cost, cursor=cursor)


class TestCursorPrimitives:
    def test_no_boundary_admits_everything(self):
        assert cursor_after(0, None)
        assert cursor_after(None, 5) is False

    def test_mixed_types_fall_back_to_string_order(self):
        assert cursor_after("b", "a")
        assert cursor_after(2, "11")  # "2" > "11" lexicographically

    def test_numeric_text_cursors_compare_as_numbers(self):
        assert cursor_after("10", "9")
        assert not cursor_after("9", "10")
        assert cursor_after("2.5", "2")
        assert cursor_after("2024-01-10", "2024-01-09")  # not numbers

    def test_watermark_never_regresses(self):
        rows = [{"seq": 5}, {"seq": 3}]
        first = watermark_for("feed", [{"seq": 9}], "seq")
        second = watermark_for("feed", rows, "seq", previous=first)
        assert second.cursor == 9  # the old high-water mark holds
        assert second.rows == 2

    def test_watermark_fingerprint_tracks_content(self):
        same = watermark_for("feed", BASE_ROWS, "seq")
        again = watermark_for("feed", [dict(r) for r in BASE_ROWS], "seq")
        changed = watermark_for(
            "feed", BASE_ROWS + [{"product": "watch", "seq": 4}], "seq"
        )
        assert same.fingerprint == again.fingerprint
        assert same.fingerprint != changed.fingerprint

    def test_watermark_dict_round_trip(self):
        mark = watermark_for("feed", BASE_ROWS, "seq")
        assert Watermark.from_dict(mark.to_dict()) == mark


class TestFetchDelta:
    def test_first_fetch_is_full_and_charges_full_price(self):
        source = make_source()
        batch = source.fetch_delta(None)
        assert batch.mode == "full"
        assert batch.fraction == 1.0
        assert batch.table is not None and len(batch.table) == 3
        assert source.accesses == pytest.approx(1.0)
        assert batch.watermark.cursor == 3

    def test_appended_rows_come_back_as_a_delta(self):
        source = make_source()
        mark = source.fetch_delta(None).watermark
        source.replace_rows(
            BASE_ROWS + [{"product": "watch", "price": 199.0, "seq": 4}]
        )
        batch = source.fetch_delta(mark)
        assert batch.mode == "delta"
        assert [r["seq"] for r in batch.rows] == [4]
        assert batch.fraction == pytest.approx(1 / 4)
        assert source.accesses == pytest.approx(1.0 + 1 / 4)
        assert batch.watermark.cursor == 4

    def test_unchanged_source_costs_only_the_floor(self):
        source = make_source()
        mark = source.fetch_delta(None).watermark
        batch = source.fetch_delta(mark)
        assert batch.mode == "unchanged"
        assert batch.rows == ()
        assert batch.fraction == DELTA_COST_FLOOR
        assert source.total_cost == pytest.approx(1.0 + DELTA_COST_FLOOR)

    def test_cursorless_source_always_fetches_full(self):
        source = make_source(cursor=None)
        assert source.delta_cursor() is None
        batch = source.fetch_delta(None)
        assert batch.mode == "full" and batch.fraction == 1.0

    def test_unpadded_integer_csv_cursor_stays_on_the_delta_path(
        self, tmp_path
    ):
        # CSV cells are strings: a string comparison puts "10" before
        # "9", so the delta came back empty, the merge failed, and every
        # tick past the tenth row fell back to a full refetch.
        path = tmp_path / "feed.csv"
        path.write_text("product,seq\nlaptop,8\nphone,9\n")
        source = CSVSource("feed", path, cursor="seq")
        first = source.fetch_delta(None)
        path.write_text(
            "product,seq\nlaptop,8\nphone,9\ntablet,10\nwatch,11\n"
        )
        batch = source.fetch_delta(first.watermark)
        assert batch.mode == "delta"
        assert [row["seq"] for row in batch.rows] == ["10", "11"]
        assert batch.watermark.cursor == "11"
        merged = merge_delta([dict(row) for row in first.rows], batch)
        assert merged is not None  # no fallback-full
        assert [row["seq"] for row in merged] == ["8", "9", "10", "11"]


class TestOneDigestPassPerFetch:
    """Every current row is hashed once per ``fetch_delta``: the same
    digests are the batch's ``order`` and the watermark's fingerprint."""

    APPENDED = BASE_ROWS + [{"product": "watch", "price": 199.0, "seq": 4}]

    @pytest.fixture
    def digest_calls(self, monkeypatch):
        calls = []

        def counting(row):
            calls.append(row)
            return row_digest(row)

        monkeypatch.setattr(repro.sources.base, "row_digest", counting)
        monkeypatch.setattr(repro.sources.cursor, "row_digest", counting)
        return calls

    @pytest.mark.parametrize("cursor", ["seq", None])
    def test_full_fetch(self, digest_calls, cursor):
        batch = make_source(cursor=cursor).fetch_delta(None)
        assert len(digest_calls) == len(BASE_ROWS)
        assert batch.order == tuple(row_digest(r) for r in BASE_ROWS)
        assert batch.watermark == watermark_for("feed", BASE_ROWS, cursor)

    @pytest.mark.parametrize("rows", [APPENDED, BASE_ROWS])
    def test_delta_and_unchanged_fetch(self, digest_calls, rows):
        source = make_source()
        mark = source.fetch_delta(None).watermark
        source.replace_rows(rows)
        del digest_calls[:]
        batch = source.fetch_delta(mark)
        assert len(digest_calls) == len(rows)
        assert batch.order == tuple(row_digest(r) for r in rows)
        assert batch.watermark == watermark_for(
            "feed", rows, "seq", previous=mark
        )


class TestMergeDelta:
    def test_append_reconstructs_the_full_view(self):
        source = make_source()
        first = source.fetch_delta(None)
        previous = [dict(r) for r in BASE_ROWS]
        source.replace_rows(
            BASE_ROWS + [{"product": "watch", "price": 199.0, "seq": 4}]
        )
        batch = source.fetch_delta(first.watermark)
        merged = merge_delta(previous, batch)
        assert merged is not None
        assert [row_digest(r) for r in merged] == list(batch.order)

    def test_edit_behind_cursor_is_refused(self):
        source = make_source()
        first = source.fetch_delta(None)
        previous = [dict(r) for r in BASE_ROWS]
        # Mutate a row *behind* the committed cursor: its digest is new,
        # but its seq does not pass the watermark, so the delta misses it.
        sneaky = [dict(BASE_ROWS[0], price=1.0)] + [
            dict(r) for r in BASE_ROWS[1:]
        ]
        source.replace_rows(sneaky)
        batch = source.fetch_delta(first.watermark)
        assert merge_delta(previous, batch) is None  # caller must refetch

    def test_deletion_behind_cursor_is_visible_in_order(self):
        source = make_source()
        first = source.fetch_delta(None)
        previous = [dict(r) for r in BASE_ROWS]
        source.replace_rows(BASE_ROWS[1:])  # first row deleted upstream
        batch = source.fetch_delta(first.watermark)
        merged = merge_delta(previous, batch)
        assert merged is not None and len(merged) == 2


class TestSizeHintInvalidation:
    def test_csv_size_hint_goes_stale_with_the_file(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("product,price\nlaptop,999\nphone,499\n")
        source = CSVSource("feed", path)
        assert source.size_hint() == 2
        charged = source.accesses
        import os

        path.write_text("product,price\nlaptop,999\nphone,499\ntablet,349\n")
        os.utime(path, ns=(1, 1))  # force a distinct stat token
        assert source.size_hint() == 3  # stale memo dropped, not served
        assert source.accesses == charged  # hints never touch the ledger

    def test_file_token_changes_with_content(self, tmp_path):
        path = tmp_path / "feed.csv"
        path.write_text("a,b\n1,2\n")
        before = file_token(path)
        path.write_text("a,b\n1,2\n3,4\n")
        assert file_token(path) != before
        assert file_token(tmp_path / "missing.csv") is None

    def test_memory_size_hint_tracks_generations(self):
        source = make_source()
        assert source.size_hint() == 3
        source.replace_rows(BASE_ROWS + [{"product": "watch", "seq": 4}])
        assert source.size_hint() == 4


class TestWrapperPassthrough:
    def test_chaos_wrapper_forwards_the_cursor(self):
        inner = make_source()
        chaotic = ChaosSource(inner, FaultPlan())
        assert chaotic.delta_cursor() == "seq"

    def test_die_at_step_kills_the_scripted_load(self):
        inner = make_source()
        chaotic = ChaosSource(inner, FaultPlan(die_at_step=2))
        chaotic.fetch()  # load #1 survives
        with pytest.raises(InjectedCrashError):
            chaotic.fetch()  # load #2 is the scripted death
        chaotic.fetch()  # the "restarted process" sails through


class TestAcquireDurableParity:
    """``acquire_durable`` makes one ``fetch_delta`` call per source
    shape; what it commits and charges is pinned to the values the
    four-branch version produced, for a bare source, a chaos source and
    an access through the resilience guard."""

    APPENDED = BASE_ROWS + [{"product": "watch", "price": 199.0, "seq": 4}]
    EDITED = [dict(APPENDED[0], price=1.0)] + APPENDED[1:]
    TICKS = [BASE_ROWS, APPENDED, APPENDED, EDITED]
    #: Per tick: (mode, rows_fetched, fraction, cumulative accesses).
    EXPECTED = {
        "seq": [
            ("full", 3, 1.0, 1.0),
            ("delta", 1, 0.25, 1.25),
            ("unchanged", 0, DELTA_COST_FLOOR, 1.3),
            # The refused delta is paid for (floor), then the refetch.
            ("fallback-full", 4, 1.0, 2.35),
        ],
        None: [
            ("full", 3, 1.0, 1.0),
            ("full", 4, 1.0, 2.0),
            ("full", 4, 1.0, 3.0),
            ("full", 4, 1.0, 4.0),
        ],
    }
    #: Per variant: the source acquired and ``acquire_durable``'s
    #: keyword arguments (the default access is a direct call).
    WRAPPERS = {
        "bare": lambda source: (source, {}),
        "resilient": lambda source: (
            source, {"access": AccessGuard(RetryPolicy()).call}
        ),
        "chaos": lambda source: (ChaosSource(source, FaultPlan()), {}),
    }

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    @pytest.mark.parametrize("cursor", ["seq", None])
    def test_mode_charge_and_watermark(self, tmp_path, cursor, wrapper):
        inner = make_source(cursor=cursor)
        source, options = self.WRAPPERS[wrapper](inner)
        for rows, expected in zip(self.TICKS, self.EXPECTED[cursor]):
            inner.replace_rows(rows)
            store = CheckpointStore(tmp_path)
            log = store.begin_run("sig")
            table = acquire_durable(source, log, **options)
            log.complete()
            mode, fetched, fraction, accesses = expected
            assert log.export()["acquisitions"]["feed"] == {
                "mode": mode,
                "rows_fetched": fetched,
                "fraction": pytest.approx(fraction),
            }
            assert source.accesses == pytest.approx(accesses)
            assert table.to_rows() == rows
            assert store.watermarks()["feed"] == watermark_for(
                "feed", rows, cursor
            )
