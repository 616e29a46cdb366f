"""The KGLiDS storage layer: LiDS graph + embedding store + model store."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from repro.embeddings.store import EmbeddingStore
from repro.rdf import QuadStore
from repro.sparql import SPARQLEngine, SelectResult


class KGLiDSStorage:
    """Bundles the three stores of Figure 1's "KGLiDS Storage" component.

    * the RDF-star quad store holding the LiDS graph (GraphDB substitute),
    * the embedding store holding CoLR column / table / dataset embeddings
      (Faiss substitute),
    * the model store holding trained models (GNN recommenders, CoLR models)
      that the Model Manager exposes to users.
    """

    def __init__(
        self,
        graph: Optional[QuadStore] = None,
        embeddings: Optional[EmbeddingStore] = None,
    ):
        #: The LiDS graph; pass ``QuadStore.sqlite(path)`` for a durable lake.
        self.graph = graph if graph is not None else QuadStore()
        self.embeddings = embeddings if embeddings is not None else EmbeddingStore()
        # One gate governs all of KGLiDS Storage: embedding reads/writes
        # synchronize with graph commit batches, so recommenders can never
        # observe an embedding batch mid-apply (or mid-rollback).
        self.embeddings.attach_gate(self.graph.gate)
        self._models: Dict[str, Any] = {}
        self._engine: Optional[SPARQLEngine] = None

    def close(self) -> None:
        """Flush and release the graph backend (no-op for in-memory stores).

        Idempotent: closing twice (or after a failed batch) is a no-op.
        """
        self.graph.close()

    @contextmanager
    def transaction(self):
        """One atomic commit across the quad store *and* the embedding store.

        Opens a graph ``write_batch`` and enlists the embedding store in it:
        embedding mutations record undo entries, and the graph batch's
        rollback/commit callbacks unwind or seal them together with the
        quads.  Nests like ``write_batch`` — an inner ``transaction`` joins
        the outer one rather than opening a second embedding batch.
        """
        with self.graph.write_batch():
            if not self.embeddings.in_batch:
                self.embeddings.begin_batch()
                self.graph.on_rollback(self.embeddings.rollback_batch)
                self.graph.on_commit(self.embeddings.commit_batch)
            yield self

    # ---------------------------------------------------------------- SPARQL
    @property
    def engine(self) -> SPARQLEngine:
        """A SPARQL engine bound to the LiDS graph."""
        if self._engine is None:
            self._engine = SPARQLEngine(self.graph)
        return self._engine

    def query(self, sparql: str) -> SelectResult:
        """Run an ad-hoc SPARQL SELECT query against the LiDS graph."""
        return self.engine.select(sparql)

    # ---------------------------------------------------------------- models
    def register_model(self, name: str, model: Any) -> None:
        """Register a trained model under a name (Model Manager upload)."""
        self._models[name] = model

    def get_model(self, name: str) -> Any:
        """Fetch a registered model; raises ``KeyError`` with the known names."""
        if name not in self._models:
            raise KeyError(
                f"no model named {name!r} is registered; available: {sorted(self._models)}"
            )
        return self._models[name]

    def has_model(self, name: str) -> bool:
        return name in self._models

    def list_models(self) -> List[str]:
        """Names of all registered models (Model Manager listing)."""
        return sorted(self._models)

    # ------------------------------------------------------------ statistics
    def statistics(self) -> Dict[str, int]:
        """Combined statistics used by the Statistics Manager."""
        stats = dict(self.graph.statistics())
        stats["num_embeddings"] = self.embeddings.count()
        stats["num_models"] = len(self._models)
        return stats
