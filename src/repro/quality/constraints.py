"""Integrity constraints: functional dependencies.

Section 4.3 points at Bohannon et al.'s cost-based repair of constraint
violations [7]; this module supplies the constraints themselves — FDs
(``postcode -> city``) — and the violation detector the repair module and
the consistency metric share.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.errors import RepairError
from repro.model.records import Record, Table

__all__ = ["Constraint", "FunctionalDependency", "Violation", "violations"]


@dataclass(frozen=True)
class Violation:
    """A group of records jointly violating one constraint."""

    constraint: "Constraint"
    records: tuple[Record, ...]
    detail: str


@dataclass(frozen=True)
class FunctionalDependency:
    """``lhs -> rhs``: equal left-hand sides force equal right-hand sides."""

    lhs: tuple[str, ...]
    rhs: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.lhs:
            raise RepairError("FD left-hand side must be non-empty")
        if self.rhs in self.lhs:
            raise RepairError("FD right-hand side cannot appear on the left")
        if not self.name:
            object.__setattr__(
                self, "name", f"{','.join(self.lhs)}->{self.rhs}"
            )

    def applies_to(self, record: Record) -> bool:
        """FDs apply to every record with a fully populated LHS."""
        return all(not record.get(a).is_missing for a in self.lhs)

    def key_of(self, record: Record) -> tuple[object, ...]:
        """The LHS value tuple of a record."""
        return tuple(record.raw(a) for a in self.lhs)

    def check(self, table: Table) -> list[Violation]:
        """All violating record groups in ``table``."""
        groups: dict[tuple[object, ...], list[Record]] = defaultdict(list)
        for record in table:
            if self.applies_to(record) and not record.get(self.rhs).is_missing:
                groups[self.key_of(record)].append(record)
        found = []
        for key, records in groups.items():
            rhs_values = {record.raw(self.rhs) for record in records}
            if len(rhs_values) > 1:
                found.append(
                    Violation(
                        self,
                        tuple(records),
                        f"{self.name}: lhs={key} has rhs values {sorted(map(str, rhs_values))}",
                    )
                )
        return found


#: The constraint language: functional dependencies.
Constraint = FunctionalDependency


def violations(table: Table, constraints: Sequence[Constraint]) -> list[Violation]:
    """All violations of all constraints in ``table``."""
    found: list[Violation] = []
    for constraint in constraints:
        found.extend(constraint.check(table))
    return found
