"""Snapshot history and change detection over wrangled data.

Velocity is not just a nuisance to tolerate — it is the *product* in the
paper's running example: price intelligence exists to notice price moves.
The :class:`SnapshotHistory` keeps the latest wrangled tables (keyed by
the stable entity ids) and diffs consecutive runs into typed
:class:`Change` events: new entities, disappeared entities, and per-cell
value changes with both provenances attached, so every alert is
explainable.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.model.records import Table

__all__ = ["Change", "ChangeReport", "SnapshotHistory"]

_snapshot_counter = itertools.count(1)


@dataclass(frozen=True)
class Change:
    """One observed difference between consecutive snapshots."""

    kind: str  # "appeared" | "disappeared" | "changed"
    entity: str
    attribute: str | None = None
    old_value: object | None = None
    new_value: object | None = None

    def describe(self) -> str:
        """A one-line human-readable account."""
        if self.kind == "appeared":
            return f"entity {self.entity} appeared"
        if self.kind == "disappeared":
            return f"entity {self.entity} disappeared"
        return (
            f"entity {self.entity}: {self.attribute} "
            f"{self.old_value!r} -> {self.new_value!r}"
        )


@dataclass
class ChangeReport:
    """All changes between two snapshots."""

    from_snapshot: int
    to_snapshot: int
    changes: list[Change] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.changes)

    def __iter__(self) -> Iterator[Change]:
        return iter(self.changes)

    def of_kind(self, kind: str) -> list[Change]:
        """Changes of one kind (``appeared``/``disappeared``/``changed``)."""
        return [change for change in self.changes if change.kind == kind]

    def for_attribute(self, attribute: str) -> list[Change]:
        """Value changes on one attribute — e.g. every price move."""
        return [
            change
            for change in self.changes
            if change.kind == "changed" and change.attribute == attribute
        ]

    def numeric_moves(self, attribute: str) -> list[tuple[str, float]]:
        """(entity, relative change) for numeric moves of ``attribute``."""
        moves = []
        for change in self.for_attribute(attribute):
            try:
                old = float(change.old_value)  # type: ignore[arg-type]
                new = float(change.new_value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
            if old == 0:
                continue
            moves.append((change.entity, (new - old) / old))
        return moves

    def summary(self) -> str:
        """Counts per change kind."""
        return (
            f"{len(self.of_kind('appeared'))} appeared, "
            f"{len(self.of_kind('disappeared'))} disappeared, "
            f"{len(self.of_kind('changed'))} cell changes"
        )


class SnapshotHistory:
    """Keeps the two latest wrangled snapshots and diffs them: all that
    :meth:`latest` and :meth:`diff_latest` ever read."""

    def __init__(self) -> None:
        self._snapshots: deque[tuple[int, Table]] = deque(maxlen=2)

    def __len__(self) -> int:
        return len(self._snapshots)

    def record(self, table: Table) -> int:
        """Store a snapshot; returns its id."""
        snapshot_id = next(_snapshot_counter)
        self._snapshots.append((snapshot_id, table))
        return snapshot_id

    def latest(self) -> Table | None:
        """The most recent snapshot, if any."""
        return self._snapshots[-1][1] if self._snapshots else None

    def diff_latest(self) -> ChangeReport:
        """Changes between the two most recent snapshots."""
        if len(self._snapshots) < 2:
            raise ValueError("need two snapshots to diff")
        (old_id, old), (new_id, new) = self._snapshots[-2], self._snapshots[-1]
        return self.diff(old, new, old_id, new_id)

    @staticmethod
    def diff(
        old: Table, new: Table, old_id: int = 0, new_id: int = 0
    ) -> ChangeReport:
        """Typed differences between two wrangled tables.

        Entities align by record id (stable, content-derived); cells
        compare by raw value over the shared schema.
        """
        report = ChangeReport(old_id, new_id)
        old_by_id = {record.rid: record for record in old}
        new_by_id = {record.rid: record for record in new}
        shared_attributes = [
            name for name in new.schema.names
            if name in old.schema and not name.startswith("_")
        ]
        for rid in sorted(new_by_id.keys() - old_by_id.keys()):
            report.changes.append(Change("appeared", rid))
        for rid in sorted(old_by_id.keys() - new_by_id.keys()):
            report.changes.append(Change("disappeared", rid))
        for rid in sorted(old_by_id.keys() & new_by_id.keys()):
            old_record, new_record = old_by_id[rid], new_by_id[rid]
            for name in shared_attributes:
                old_value = old_record.get(name)
                new_value = new_record.get(name)
                if old_value.is_missing and new_value.is_missing:
                    continue
                if old_value.raw != new_value.raw:
                    report.changes.append(
                        Change("changed", rid, name, old_value.raw, new_value.raw)
                    )
        return report
