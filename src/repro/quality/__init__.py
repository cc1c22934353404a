"""Quality analyses: dimension metrics, constraints, repair."""

from repro.quality.constraints import (
    Constraint,
    FunctionalDependency,
    Violation,
    violations,
)
from repro.quality.metrics import QualityAnalyser, QualityReport
from repro.quality.repair import CellRepair, RepairResult, repair_table

__all__ = [
    "CellRepair",
    "Constraint",
    "FunctionalDependency",
    "QualityAnalyser",
    "QualityReport",
    "RepairResult",
    "Violation",
    "repair_table",
    "violations",
]
