"""Data fusion and truth discovery: conflict resolution, TruthFinder,
source-accuracy EM (with copy-detection vote weights), and entity fusion."""

from repro.fusion.fuse import EntityFuser
from repro.fusion.strategies import (
    STRATEGIES,
    AttributeClaims,
    FusedChoice,
    resolve,
)
from repro.fusion.truth import (
    AccuEM,
    Claim,
    CopyReport,
    TruthFinder,
    TruthResult,
    detect_copying,
    majority_baseline,
)

__all__ = [
    "AccuEM",
    "AttributeClaims",
    "Claim",
    "CopyReport",
    "EntityFuser",
    "detect_copying",
    "FusedChoice",
    "STRATEGIES",
    "TruthFinder",
    "TruthResult",
    "majority_baseline",
    "resolve",
]
