"""An RDF-star quad store with pluggable storage backends (GraphDB substitute).

KGLiDS stores the LiDS graph in GraphDB using the RDF-star model so that
similarity edges can carry prediction scores.  This package provides the term
model (URIs, literals, blank nodes, quoted triples), named-graph quad storage
with pattern-matching indices, N-Triples/N-Quads serialization, and two
storage backends behind the :class:`QuadStore` interface:

* ``QuadStore()`` — in-memory (the seed behaviour; dies with the process);
* ``QuadStore.sqlite(path)`` — durable, one sqlite shard per named graph,
  lazily reloaded on open (see :mod:`repro.rdf.backend`).
"""

from repro.rdf.backend import QuadStoreBackend, SqliteBackend
from repro.rdf.faults import (
    FaultInjectingBackend,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
)
from repro.rdf.gate import ReadView, ReadWriteGate
from repro.rdf.graph_index import GraphIndex, IdTriple, PredicateStats
from repro.rdf.namespace import (
    KGLIDS_DATA,
    KGLIDS_ONTOLOGY,
    KGLIDS_PIPELINE,
    KGLIDS_RESOURCE,
    OWL,
    RDF,
    RDFS,
    XSD,
    Namespace,
)
from repro.rdf.store import DEFAULT_GRAPH, QuadStore
from repro.rdf.terms import (
    BNode,
    Literal,
    QuotedTriple,
    Term,
    TermDictionary,
    Triple,
    URIRef,
)

__all__ = [
    "URIRef",
    "Literal",
    "BNode",
    "QuotedTriple",
    "Term",
    "Triple",
    "QuadStore",
    "QuadStoreBackend",
    "SqliteBackend",
    "GraphIndex",
    "IdTriple",
    "PredicateStats",
    "ReadWriteGate",
    "ReadView",
    "FaultInjectingBackend",
    "FaultPlan",
    "InjectedFault",
    "InjectedCrash",
    "TermDictionary",
    "DEFAULT_GRAPH",
    "Namespace",
    "RDF",
    "RDFS",
    "XSD",
    "OWL",
    "KGLIDS_ONTOLOGY",
    "KGLIDS_RESOURCE",
    "KGLIDS_DATA",
    "KGLIDS_PIPELINE",
]
