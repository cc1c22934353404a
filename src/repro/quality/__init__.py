"""Quality analyses: profiling, dimension metrics, constraints, repair."""

from repro.quality.constraints import (
    Constraint,
    FunctionalDependency,
    Violation,
    violations,
)
from repro.quality.metrics import QualityAnalyser, QualityReport
from repro.quality.profiling import ColumnProfile, TableProfile, profile_table
from repro.quality.repair import CellRepair, RepairResult, repair_table

__all__ = [
    "CellRepair",
    "ColumnProfile",
    "Constraint",
    "FunctionalDependency",
    "QualityAnalyser",
    "QualityReport",
    "RepairResult",
    "TableProfile",
    "Violation",
    "profile_table",
    "repair_table",
    "violations",
]
