"""User and data contexts — the auxiliary data of the paper's Figure 1.

"Comprehensive support for context awareness within data wrangling" is one
of the paper's two headline requirements.  This package provides the user
context (declarative multi-criteria requirements), the data context (master
data, reference data, domain ontology), and the weighted rank every
component uses to act on them.
"""

from repro.context.data_context import DataContext
from repro.context.decision import Alternative, rank, weighted_score
from repro.context.ontology import Concept, Ontology, Property
from repro.context.user_context import UserContext

__all__ = [
    "Alternative",
    "Concept",
    "DataContext",
    "Ontology",
    "Property",
    "UserContext",
    "rank",
    "weighted_score",
]
