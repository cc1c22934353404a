"""repro — context-aware, pay-as-you-go data wrangling.

A full reproduction of the system envisioned in:

    Furche, Gottlob, Libkin, Orsi, Paton.
    *Data Wrangling for Big Data: Challenges and Opportunities.*
    EDBT 2016.

The public API is re-exported here; see ``examples/quickstart.py`` for a
guided tour and ``DESIGN.md`` for the architecture.
"""

from repro.baselines import StaticETL
from repro.context import DataContext, Ontology, UserContext
from repro.core import AutonomicPlanner, Dataflow, WranglePlan, WrangleResult, Wrangler
from repro.feedback import (
    DuplicateFeedback,
    ExtractionFeedback,
    FeedbackStore,
    MatchFeedback,
    RelevanceFeedback,
    ValueFeedback,
)
from repro.model import (
    DataType,
    Dimension,
    Provenance,
    Record,
    Schema,
    Table,
    Value,
    WorkingData,
)
from repro.resilience import ChaosSource, FaultPlan, RetryPolicy
from repro.sources import (
    CSVSource,
    MemoryDocumentSource,
    MemorySource,
    SourceRegistry,
)

__version__ = "1.0.0"

__all__ = [
    "AutonomicPlanner",
    "CSVSource",
    "ChaosSource",
    "DataContext",
    "DataType",
    "Dataflow",
    "Dimension",
    "DuplicateFeedback",
    "ExtractionFeedback",
    "FaultPlan",
    "FeedbackStore",
    "MatchFeedback",
    "MemoryDocumentSource",
    "MemorySource",
    "Ontology",
    "Provenance",
    "Record",
    "RelevanceFeedback",
    "RetryPolicy",
    "Schema",
    "SourceRegistry",
    "StaticETL",
    "Table",
    "UserContext",
    "Value",
    "ValueFeedback",
    "WorkingData",
    "WranglePlan",
    "WrangleResult",
    "Wrangler",
    "__version__",
]
