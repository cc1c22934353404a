"""The autonomic core: incremental dataflow, planner, and the Wrangler."""

from repro.core.dataflow import Dataflow
from repro.core.history import Change, ChangeReport, SnapshotHistory
from repro.core.planner import AutonomicPlanner, WranglePlan
from repro.core.result import WrangleResult
from repro.core.wrangler import Wrangler

__all__ = [
    "AutonomicPlanner",
    "Change",
    "ChangeReport",
    "SnapshotHistory",
    "Dataflow",
    "WranglePlan",
    "WrangleResult",
    "Wrangler",
]
