"""The LiDS ontology and knowledge-graph construction (KG Governor).

This package is the core of the platform: it turns column profiles and
abstracted pipelines into the LiDS graph.

* :mod:`repro.kg.ontology` — the LiDS ontology (classes, object properties,
  data properties) under ``http://kglids.org/ontology/``.
* :mod:`repro.kg.dataset_graph` — the Data Global Schema Builder
  (Algorithm 3): metadata subgraphs plus similarity edges annotated with
  RDF-star scores, and derived unionable / joinable table relationships.
* :mod:`repro.kg.pipeline_graph` — pipeline named graphs and the library
  hierarchy graph.
* :mod:`repro.kg.linker` — the Global Graph Linker verifying predicted
  dataset usage against the dataset graph.
* :mod:`repro.kg.governor` — the KG Governor orchestrating profiling,
  abstraction, construction and incremental maintenance.
* :mod:`repro.kg.service` — the queued ingestion service: ``submit_*``
  returns :class:`IngestTicket` handles while a background scheduler
  coalesces micro-batches and commits them atomically.
* :mod:`repro.kg.storage` — the KGLiDS storage bundle (quad store +
  embedding store + model store).
"""

from repro.kg.dataset_graph import DataGlobalSchemaBuilder, SimilarityThresholds
from repro.kg.errors import (
    GovernanceError,
    PoisonTableError,
    SourceUnavailableError,
    TableReadError,
    TransientError,
)
from repro.kg.governor import GovernorReport, KGGovernor, SnapshotFormatError
from repro.kg.linker import GlobalGraphLinker
from repro.kg.ontology import LiDSOntology, column_uri, dataset_uri, pipeline_graph_uri, table_uri
from repro.kg.pipeline_graph import PipelineGraphBuilder
from repro.kg.service import GovernorService, IngestTicket
from repro.kg.storage import KGLiDSStorage

__all__ = [
    "LiDSOntology",
    "dataset_uri",
    "table_uri",
    "column_uri",
    "pipeline_graph_uri",
    "SimilarityThresholds",
    "DataGlobalSchemaBuilder",
    "PipelineGraphBuilder",
    "GlobalGraphLinker",
    "KGGovernor",
    "GovernorReport",
    "SnapshotFormatError",
    "GovernorService",
    "IngestTicket",
    "KGLiDSStorage",
    "GovernanceError",
    "TransientError",
    "PoisonTableError",
    "SourceUnavailableError",
    "TableReadError",
]
