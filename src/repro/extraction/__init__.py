"""Data extraction: DOM parsing, field recognisers, wrapper induction,
and joint wrapper/data repair (the Data Extraction box of Figure 1)."""

from repro.extraction.dom import DomNode, parse_html
from repro.extraction.induction import ExampleAnnotation, auto_induce, induce_wrapper
from repro.extraction.patterns import (
    RECOGNISERS,
    Recogniser,
    best_recogniser,
    recognise,
    recogniser,
)
from repro.extraction.repair import RepairAction, RepairReport, WrapperRepairer
from repro.extraction.wrapper import FieldRule, Pages, Wrapper

__all__ = [
    "DomNode",
    "ExampleAnnotation",
    "FieldRule",
    "Pages",
    "RECOGNISERS",
    "Recogniser",
    "RepairAction",
    "RepairReport",
    "Wrapper",
    "WrapperRepairer",
    "auto_induce",
    "best_recogniser",
    "induce_wrapper",
    "parse_html",
    "recognise",
    "recogniser",
]
