"""The uniform working-data representation (paper Section 4.2).

Everything the wrangler manipulates — cell values, records, tables,
schemas, provenance trees, uncertainty, quality annotations — lives in this
package so that extraction, integration, cleaning and feedback components
share one representation.
"""

from repro.model.annotations import AnnotationStore, Dimension, QualityAnnotation
from repro.model.provenance import Provenance, Step
from repro.model.records import Record, Table
from repro.model.schema import (
    Attribute,
    DataType,
    Schema,
    coerce,
    infer_column_type,
    infer_type,
)
from repro.model.uncertainty import (
    BetaReliability,
    Evidence,
    clamp,
    log_odds_pool,
    pool_evidence,
)
from repro.model.values import MISSING, Value
from repro.model.workingdata import ArtifactKey, WorkingData

__all__ = [
    "AnnotationStore",
    "ArtifactKey",
    "Attribute",
    "BetaReliability",
    "DataType",
    "Dimension",
    "Evidence",
    "MISSING",
    "Provenance",
    "QualityAnnotation",
    "Record",
    "Schema",
    "Step",
    "Table",
    "Value",
    "WorkingData",
    "clamp",
    "coerce",
    "infer_column_type",
    "infer_type",
    "log_odds_pool",
    "pool_evidence",
]
