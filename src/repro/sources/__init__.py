"""Data sources: CSV files, in-memory tables, and document (web) sources."""

from repro.sources.base import (
    DataSource,
    Document,
    DocumentSource,
    SourceMetadata,
    StructuredSource,
)
from repro.sources.files import CSVSource
from repro.sources.memory import MemoryDocumentSource, MemorySource, VolatileSource
from repro.sources.registry import SourceRegistry

__all__ = [
    "CSVSource",
    "DataSource",
    "Document",
    "DocumentSource",
    "MemoryDocumentSource",
    "MemorySource",
    "SourceMetadata",
    "SourceRegistry",
    "StructuredSource",
    "VolatileSource",
]
