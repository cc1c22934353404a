"""Cost-based constraint repair by value modification.

After Bohannon, Fan, Flaster & Rastogi (SIGMOD 2005), which the paper cites
as the canonical example of a quality analysis that is "intractable" in
general (Section 4.3): finding a minimum-cost repair is NP-hard, so this is
the standard equivalence-class heuristic — for each violating group, keep
the right-hand-side value with the greatest confidence-weighted support and
modify the rest, iterating to a fixpoint.  The cost of a repair is the sum
of the confidences of the cells it changes (changing a value the system is
sure about is expensive; changing a dubious one is cheap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import RepairError
from repro.model.provenance import Step
from repro.model.records import Table
from repro.quality.constraints import Constraint, violations

__all__ = ["CellRepair", "RepairResult", "repair_table"]


@dataclass(frozen=True)
class CellRepair:
    """One value modification performed by the repair."""

    rid: str
    attribute: str
    old_value: object
    new_value: object
    cost: float


@dataclass
class RepairResult:
    """The repaired table plus the changes and their total cost."""

    table: Table
    repairs: list[CellRepair] = field(default_factory=list)
    rounds: int = 0

    @property
    def total_cost(self) -> float:
        """Confidence-weighted cost of all modifications."""
        return sum(repair.cost for repair in self.repairs)


def repair_table(
    table: Table,
    constraints: Sequence[Constraint],
    max_rounds: int = 10,
) -> RepairResult:
    """Repair ``table`` until ``constraints`` hold (or rounds run out).

    Each round resolves every violating equivalence class independently:
    the surviving right-hand-side value is the one whose supporting cells
    carry the greatest total confidence, and every dissenting cell is
    modified to it (cost = its confidence).  Because later constraints can
    re-violate earlier ones, rounds repeat to a fixpoint; failure to reach
    one within ``max_rounds`` raises — a repair that silently leaves
    violations would poison downstream trust.
    """
    current = Table(table.name, table.schema, list(table.records))
    repairs: list[CellRepair] = []
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        found = violations(current, constraints)
        if not found:
            return RepairResult(current, repairs, rounds - 1)
        records_by_rid = {record.rid: record for record in current.records}
        for violation in found:
            constraint = violation.constraint
            rhs = constraint.rhs
            # Confidence-weighted support per candidate RHS value.
            support: dict[object, float] = {}
            for record in violation.records:
                record = records_by_rid[record.rid]
                value = record.get(rhs)
                if value.is_missing:
                    continue
                support[value.raw] = support.get(value.raw, 0.0) + value.confidence
            if not support:
                continue
            target_value = max(support, key=lambda v: support[v])
            for record in violation.records:
                record = records_by_rid[record.rid]
                value = record.get(rhs)
                if value.is_missing or value.raw == target_value:
                    continue
                repaired_value = value.with_raw(
                    target_value, Step.REPAIR, constraint.name
                ).with_confidence(min(value.confidence, 0.7))
                repairs.append(
                    CellRepair(
                        record.rid, rhs, value.raw, target_value, value.confidence
                    )
                )
                records_by_rid[record.rid] = record.with_cell(rhs, repaired_value)
        current = Table(
            current.name,
            current.schema,
            [records_by_rid[record.rid] for record in current.records],
        )
    if violations(current, constraints):
        raise RepairError(
            f"no consistent repair found within {max_rounds} rounds"
        )
    return RepairResult(current, repairs, rounds)
