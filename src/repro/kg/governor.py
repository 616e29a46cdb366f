"""The KG Governor: bootstrapping and incrementally maintaining the LiDS graph.

The governor wires together the three components of Figure 1: data profiling
(Algorithm 2), pipeline abstraction (Algorithm 1) and KG construction
(Algorithm 3 + pipeline graphs + the Global Graph Linker).  It owns the
storage bundle and keeps the profiles around so that datasets and pipelines
can be added incrementally after bootstrapping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> governor)
    from repro.kg.service import GovernorService

from repro.embeddings.colr import ColRModelSet
from repro.embeddings.store import EmbeddingStore
from repro.kg.dataset_graph import DataGlobalSchemaBuilder, SimilarityThresholds
from repro.kg.linker import GlobalGraphLinker, LinkReport
from repro.kg.ontology import (
    DATASET_GRAPH,
    ONTOLOGY_GRAPH,
    LiDSOntology,
    column_uri,
    dataset_uri,
    pipeline_graph_uri,
    table_uri,
)
from repro.kg.pipeline_graph import PipelineGraphBuilder
from repro.kg.storage import KGLiDSStorage
from repro.parallel import JobExecutor
from repro.pipelines.abstraction import AbstractedPipeline, PipelineAbstractor, PipelineScript
from repro.profiler.profile import DataProfiler, TableProfile
from repro.rdf import QuadStore, SqliteBackend, URIRef
from repro.tabular import DataLake, Table

PathLike = Union[str, Path]

#: File names of one saved governor directory.
_GRAPH_FILE = "graph.sqlite3"
_EMBEDDINGS_FILE = "embeddings.npz"
_PROFILES_FILE = "profiles.json"
_PIPELINES_FILE = "pipelines.json"
_MANIFEST_FILE = "manifest.json"
#: Newest ``format`` of each JSON file :meth:`KGGovernor.open` can read.
_PROFILES_FORMAT = 2
_PIPELINES_FORMAT = 2


class SnapshotFormatError(ValueError):
    """A saved file was written in a format newer than this code reads."""

    def __init__(self, path: Path, found: object, supported: int):
        self.path = path
        self.found = found
        self.supported = supported
        super().__init__(
            f"{path} has format {found!r}; this code reads formats up to {supported}"
        )


def _read_payload(path: Path, supported: int) -> Optional[Dict]:
    """Load a saved JSON file (``None`` if absent), refusing a format newer
    than ``supported``."""
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    found = payload.get("format", 1)
    if not isinstance(found, int) or found > supported:
        raise SnapshotFormatError(path, found, supported)
    return payload


@dataclass
class GovernorReport:
    """Summary of one governor run (bootstrapping or incremental update)."""

    num_tables_profiled: int = 0
    num_columns_profiled: int = 0
    num_pipelines_abstracted: int = 0
    num_similarity_edges: int = 0
    #: ``dataset/table`` ids that went through the refresh path (re-profile,
    #: then replace the footprint) because their contents changed since they
    #: were governed.
    refreshed_tables: List[str] = field(default_factory=list)
    #: ``dataset/table`` ids removed from the graph by retraction requests.
    retracted_tables: List[str] = field(default_factory=list)
    link_reports: List[LinkReport] = field(default_factory=list)

    def merge(self, other: "GovernorReport") -> "GovernorReport":
        """Compose two reports into a new one (associative, non-mutating).

        Counters add and the event lists concatenate in ``self``-then-
        ``other`` order, so ``(a.merge(b)).merge(c) == a.merge(b.merge(c))``
        — ticket results from the governor service compose into the same
        totals no matter how the scheduler coalesced the submissions.
        """
        return GovernorReport(
            num_tables_profiled=self.num_tables_profiled + other.num_tables_profiled,
            num_columns_profiled=self.num_columns_profiled + other.num_columns_profiled,
            num_pipelines_abstracted=(
                self.num_pipelines_abstracted + other.num_pipelines_abstracted
            ),
            num_similarity_edges=self.num_similarity_edges + other.num_similarity_edges,
            refreshed_tables=self.refreshed_tables + other.refreshed_tables,
            retracted_tables=self.retracted_tables + other.retracted_tables,
            link_reports=self.link_reports + other.link_reports,
        )

    def __add__(self, other: "GovernorReport") -> "GovernorReport":
        if not isinstance(other, GovernorReport):
            return NotImplemented
        return self.merge(other)

    def __radd__(self, other) -> "GovernorReport":
        # ``sum(reports)`` starts from 0; an empty report is the identity.
        if other == 0:
            return self.merge(GovernorReport())
        return NotImplemented


class KGGovernor:
    """Creates, maintains and synchronizes the LiDS graph."""

    def __init__(
        self,
        storage: Optional[KGLiDSStorage] = None,
        profiler: Optional[DataProfiler] = None,
        abstractor: Optional[PipelineAbstractor] = None,
        thresholds: Optional[SimilarityThresholds] = None,
        colr_models: Optional[ColRModelSet] = None,
        executor: Optional[JobExecutor] = None,
        schema_builder: Optional[DataGlobalSchemaBuilder] = None,
        include_default_parameters: bool = True,
    ):
        self.storage = storage or KGLiDSStorage()
        self.executor = executor or JobExecutor()
        # Pass the *original* (possibly None) model set through so the
        # profiler keeps its all-default-components fast path: only then can
        # process-pool workers rebuild an identical profiler from config.
        self.profiler = profiler or DataProfiler(
            colr_models=colr_models, executor=self.executor
        )
        self.colr_models = colr_models or self.profiler.colr_models
        self.abstractor = abstractor or PipelineAbstractor(executor=self.executor)
        self.schema_builder = schema_builder or DataGlobalSchemaBuilder(
            thresholds=thresholds, executor=self.executor
        )
        self.pipeline_builder = PipelineGraphBuilder(
            include_default_parameters=include_default_parameters
        )
        self.linker = GlobalGraphLinker()
        self.table_profiles: List[TableProfile] = []
        #: ``(dataset, table) -> TableProfile`` lookup, maintained alongside
        #: ``table_profiles`` so :meth:`table_profile` is O(1) and repeated
        #: adds of the same table are detected without a scan.
        self._profiles_by_key: Dict[Tuple[str, str], TableProfile] = {}
        #: Content fingerprint of each governed table, recorded at profiling
        #: time so re-adds can tell unchanged (skip) from changed (refresh).
        self._fingerprints_by_key: Dict[Tuple[str, str], str] = {}
        self.abstractions: List[AbstractedPipeline] = []
        #: ``pipeline_id -> AbstractedPipeline``, maintained alongside
        #: ``abstractions`` so re-adds of already-governed scripts are
        #: detected in O(1) (and skipped when the source is unchanged).
        self._abstractions_by_id: Dict[str, AbstractedPipeline] = {}
        #: The :class:`~repro.kg.service.GovernorService` currently fronting
        #: this governor, if any.  While attached, the public sync mutators
        #: become submit-and-wait shims through the service queue so queued
        #: and direct callers serialize on one scheduler.
        self._service: Optional["GovernorService"] = None
        #: Set by ``LiDSClient.open``: a read-only governor rejects every
        #: mutation (the saved directory stays untouched).
        self.read_only = False
        #: What the durable backend verified/repaired on open: the committed
        #: ``commit_version`` marker plus any torn shards / orphan tables it
        #: discarded (empty for in-memory stores).
        self.recovery: Dict[str, object] = dict(self.storage.graph.recovery or {})
        self._write_ontology()

    def _write_ontology(self) -> None:
        # A durable store reopened from disk usually carries the full
        # ontology graph already; skipping the no-op re-adds avoids loading
        # its shard just to discover every triple exists.  Skip only on an
        # *exact* count match: lakes saved by an older code version re-add
        # when the ontology grows or shrinks.  (A rename that keeps the
        # count unchanged would need an explicit migration — the ontology
        # is versioned with this code and has only ever grown.)
        triples = LiDSOntology.ontology_triples()
        if self.storage.graph.num_triples(ONTOLOGY_GRAPH) == len(triples):
            return
        self.storage.graph.add_many(triples, graph=ONTOLOGY_GRAPH)

    # -------------------------------------------------------- service routing
    def _ensure_writable(self) -> None:
        if self.read_only:
            raise PermissionError(
                "this governor is read-only (opened via LiDSClient.open); "
                "reopen it with KGGovernor.open to govern new data"
            )

    def _route_to_service(self) -> Optional["GovernorService"]:
        """The service to submit through, or ``None`` for the direct path.

        Mutations called on the service's own scheduler thread run directly
        (they *are* the queued work being executed); everyone else becomes a
        submit-and-wait shim so concurrent sync callers and queued tickets
        serialize through one scheduler.  Waiting while holding a read view
        on the graph would deadlock against the scheduler's write batches,
        so that is rejected up front.
        """
        service = self._service
        if service is None or service.is_scheduler_thread():
            return None
        if self.storage.graph.in_read_view():
            raise RuntimeError(
                "cannot govern synchronously while holding a read view: the "
                "scheduler's write batch would wait on this thread's view "
                "while this thread waits on the ticket"
            )
        return service

    # ----------------------------------------------------------- bootstrapping
    def bootstrap(
        self,
        lake: Optional[DataLake] = None,
        scripts: Optional[Sequence[PipelineScript]] = None,
    ) -> GovernorReport:
        """Profile a data lake, abstract pipeline scripts and build the LiDS graph."""
        report = GovernorReport()
        if lake is not None:
            report = report.merge(self.add_data_lake(lake))
        if scripts:
            report = report.merge(self.add_pipelines(scripts))
        return report

    # --------------------------------------------------------- state rollback
    def _profile_state_snapshot(self):
        """Copies of the python-side profile registries (undo material).

        The governor's dict/list state mutates alongside the graph inside a
        write batch; restoring this snapshot on rollback keeps both in step.
        The copies are shallow — profiles themselves are treated as
        immutable once built.
        """
        return (
            list(self.table_profiles),
            dict(self._profiles_by_key),
            dict(self._fingerprints_by_key),
        )

    def _restore_profile_state(self, snapshot) -> None:
        self.table_profiles, self._profiles_by_key, self._fingerprints_by_key = (
            list(snapshot[0]),
            dict(snapshot[1]),
            dict(snapshot[2]),
        )

    def _register_state_rollback(self, restore) -> None:
        """Attach a python-state restorer to the open write batch."""
        graph = self.storage.graph
        if graph.in_write_batch:
            graph.on_rollback(restore)

    # ------------------------------------------------------------ incremental
    def add_data_lake(
        self, lake: DataLake, *, _force_refresh: frozenset = frozenset()
    ) -> GovernorReport:
        """Profile and register every *new or changed* table of ``lake``.

        The add is incremental: tables already governed with unchanged
        contents are skipped (so re-adding a lake is idempotent), only the
        fresh tables are profiled, and the schema builder scores similarity
        for new x (new + existing) column pairs instead of rebuilding the
        full O(n^2) schema.  Adding tables one by one therefore yields the
        exact graph a single bootstrap over the union would.

        Re-adding a table whose *contents* changed (detected via the content
        fingerprint recorded when it was first governed) takes the refresh
        path: its stale metadata triples, similarity edges and embeddings
        give way to the re-governed footprint *in the same commit* (readers
        observe old state or new, never neither), which writes only the
        rows that differ; it is logged in
        ``GovernorReport.refreshed_tables``.  Change detection costs one
        hash pass over each already-governed table's values per re-add —
        far cheaper than profiling, but no longer the O(1) key lookup the
        pre-refresh governor used.

        Concurrency: profiling and similarity scoring run *outside* the
        store's write gate; only the final graph application (metadata
        subgraphs, similarity edges, table relationships) holds it, inside
        one ``write_batch`` — so concurrent read views block only for the
        short apply phase and observe either none or all of this add.  When
        a :class:`~repro.kg.service.GovernorService` fronts this governor,
        the call becomes a submit-and-wait through its queue.
        """
        self._ensure_writable()
        service = self._route_to_service()
        if service is not None:
            return service.submit_lake(lake).result()
        report = GovernorReport()
        fresh_tables: List[Table] = []
        fingerprints: Dict[Tuple[str, str], str] = {}
        #: ``(dataset, table, stale_profile)`` of re-adds whose contents
        #: changed — replaced inside the same commit that re-governs them.
        stale: List[Tuple[str, str, TableProfile]] = []
        for table in lake.tables():
            key = (table.dataset or "default", table.name)
            if key not in self._profiles_by_key:
                fresh_tables.append(table)
                fingerprints[key] = table.content_fingerprint()
                continue
            forced = key in _force_refresh
            recorded = self._fingerprints_by_key.get(key)
            if recorded is None and not forced:
                continue
            fingerprint = table.content_fingerprint()
            if forced or fingerprint != recorded:
                stale.append((key[0], key[1], self._profiles_by_key[key]))
                fresh_tables.append(table)
                fingerprints[key] = fingerprint
                report.refreshed_tables.append(f"{key[0]}/{key[1]}")
        if not fresh_tables:
            return report
        # Drop the stale profiles from the python registries *before*
        # planning so similarity is never scored against a profile being
        # replaced; the graph-side replacement happens inside the single
        # transaction below.  The snapshot restores everything if the batch
        # (or profiling itself) fails.
        snapshot = self._profile_state_snapshot()
        for dataset_name, table_name, profile in stale:
            key = (dataset_name, table_name)
            self._profiles_by_key.pop(key, None)
            self._fingerprints_by_key.pop(key, None)
            self.table_profiles = [p for p in self.table_profiles if p is not profile]
        self._fingerprints_by_key.update(fingerprints)
        try:
            new_profiles = self.profiler.profile_tables(fresh_tables)
            plan = self.schema_builder.plan_incremental(new_profiles, self.table_profiles)
        except BaseException:
            self._restore_profile_state(snapshot)
            raise
        report.num_tables_profiled += len(new_profiles)
        report.num_columns_profiled += sum(len(p.column_profiles) for p in new_profiles)
        # One transaction covers the stale footprints, embeddings and graph
        # writes: a refresh is all-or-nothing, and readers see the old table
        # state replaced by the new in a single commit.
        with self.storage.transaction():
            self._register_state_rollback(
                lambda: self._restore_profile_state(snapshot)
            )
            replacing = [node for entry in stale for node in self._retire_footprint(*entry)]
            self._store_embeddings(new_profiles)
            edges = self.schema_builder.apply_incremental(
                new_profiles, plan, self.storage.graph, replacing=replacing
            )
            self.table_profiles.extend(new_profiles)
            for profile in new_profiles:
                self._profiles_by_key[
                    (profile.dataset_name, profile.table_name)
                ] = profile
        # No explicit linker cache invalidation needed: the metadata writes
        # above bumped the dataset graph's version, which keys the cache.
        report.num_similarity_edges += len(edges)
        return report

    def add_table(self, table: Table, dataset_name: str = "default") -> GovernorReport:
        """Incrementally add a single table to the LiDS graph."""
        lake = DataLake(name=dataset_name)
        lake.add_table(dataset_name, table)
        return self.add_data_lake(lake)

    def add_pipelines(self, scripts: Sequence[PipelineScript]) -> GovernorReport:
        """Abstract scripts, write their named graphs, and link them to datasets.

        The add is incremental, mirroring :meth:`add_data_lake`: scripts whose
        ``pipeline_id`` is already governed with identical source code are
        skipped outright (re-adding a script collection is idempotent and
        cheap — this survives :meth:`save`/:meth:`open` because each
        abstraction's script, calls and predicted reads round-trip through
        the saved directory), while scripts re-added with *changed* source
        have their stale named graph dropped before being abstracted and
        written afresh.  A fresh abstraction's statements are read once, to
        write its named graph, and then dropped: the governor keeps the same
        statement-free abstractions a reopened governor loads.

        Like :meth:`add_data_lake`, abstraction (the expensive static
        analysis) runs outside the store's write gate; stale-graph removal
        and the fresh graph writes each run as one atomic ``write_batch``,
        and a fronting service turns the call into a submit-and-wait.
        """
        self._ensure_writable()
        service = self._route_to_service()
        if service is not None:
            return service.submit_pipelines(scripts).result()
        report = GovernorReport()
        fresh_scripts: List[PipelineScript] = []
        changed_ids: set = set()
        snapshot = self._pipeline_state_snapshot()
        for script in scripts:
            governed = self._abstractions_by_id.get(script.pipeline_id)
            if governed is not None:
                if governed.script.source_code == script.source_code:
                    continue
                changed_ids.add(script.pipeline_id)
                del self._abstractions_by_id[script.pipeline_id]
            fresh_scripts.append(script)
        if changed_ids:
            with self.storage.graph.write_batch():
                self._register_state_rollback(
                    lambda: self._restore_pipeline_state(snapshot)
                )
                # Changed source: each stale pipeline's whole named graph
                # goes, and the shared library graph is rebuilt from the
                # surviving abstractions (the fresh re-abstractions below
                # re-contribute theirs through the normal add path).
                for pipeline_id in changed_ids:
                    self.storage.graph.remove_graph(pipeline_graph_uri(pipeline_id))
                self.abstractions = [
                    a for a in self.abstractions if a.pipeline_id not in changed_ids
                ]
                self._rebuild_library_graph()
        if not fresh_scripts:
            return report
        abstractions = self.abstractor.abstract_scripts(fresh_scripts)
        # Fresh snapshot: the retraction batch above may have committed, and
        # a rollback of the write batch below must not resurrect it.
        snapshot = self._pipeline_state_snapshot()
        with self.storage.graph.write_batch():
            self._register_state_rollback(
                lambda snap=snapshot: self._restore_pipeline_state(snap)
            )
            self.abstractions.extend(abstractions)
            for abstraction in abstractions:
                self._abstractions_by_id[abstraction.pipeline_id] = abstraction
            self.pipeline_builder.add_pipelines(abstractions, self.storage.graph)
            for abstraction in abstractions:
                abstraction.statements = []
            self.pipeline_builder.add_library_hierarchy(
                self.abstractor.library_hierarchy_edges(), self.storage.graph
            )
            report.num_pipelines_abstracted = len(abstractions)
            report.link_reports = self.linker.link_pipelines(
                abstractions, self.storage.graph
            )
        return report

    def _pipeline_state_snapshot(self):
        return (
            list(self.abstractions),
            dict(self._abstractions_by_id),
            set(self.abstractor.library_hierarchy),
        )

    def _restore_pipeline_state(self, snapshot) -> None:
        self.abstractions = list(snapshot[0])
        self._abstractions_by_id = dict(snapshot[1])
        self.abstractor.library_hierarchy = set(snapshot[2])

    def _rebuild_library_graph(self) -> None:
        """Drop and rebuild the shared library graph from ``abstractions``.

        Hierarchy edges accumulate per call across *all* pipelines, so
        retracting one changed pipeline's stale contribution requires the
        set difference against every other pipeline — cheaper and simpler to
        re-derive the whole graph (it is small: one node per library
        element) from the calls the surviving abstractions actually make.
        """
        from repro.kg.ontology import LIBRARY_GRAPH

        graph = self.storage.graph
        graph.remove_graph(LIBRARY_GRAPH)
        self.abstractor.library_hierarchy = set()
        for abstraction in self.abstractions:
            for call in abstraction.calls_used:
                for edge in self.abstractor.documentation.hierarchy_edges(call):
                    self.abstractor.library_hierarchy.add(edge)
            self.pipeline_builder.add_call_hierarchy(abstraction, graph)
        self.pipeline_builder.add_library_hierarchy(
            self.abstractor.library_hierarchy_edges(), graph
        )

    # ---------------------------------------------------------------- refresh
    def refresh_table(self, table: Table, dataset_name: Optional[str] = None) -> GovernorReport:
        """Re-govern a table, writing the difference in one commit.

        Everything derived from the table's old contents — its metadata
        triples, the similarity / unionability / joinability edges (and
        their RDF-star score annotations) touching its column and table
        nodes, and its stored embeddings — gives way to the re-profiled
        footprint *in the same commit*.  The graph write is one
        ``QuadStore.replace_nodes`` call: rows the new footprint shares with
        the old stay put, so a changed score swaps one ``withCertainty``
        literal and an unchanged table changes no row at all.  Concurrent
        readers observe the old table state or the new one, never the gap
        in between, and a failure anywhere (profiling included) rolls
        everything back to the pre-refresh state.  The result is
        byte-identical to governing the modified lake from scratch: no stale
        triples, edges or embeddings survive.  Refreshing a table that was
        never governed degrades to a plain add.  Profiling still runs
        outside the write gate — only the apply phase holds it.
        """
        self._ensure_writable()
        service = self._route_to_service()
        if service is not None:
            return service.submit_refresh(table, dataset_name=dataset_name).result()
        dataset_name = dataset_name or table.dataset or "default"
        lake = DataLake(name=dataset_name)
        lake.add_table(dataset_name, table)
        # Force the refresh path even when the content fingerprint matches
        # (the caller explicitly asked for a re-govern): the stale footprint
        # is replaced inside the same commit that re-adds the table.
        return self.add_data_lake(
            lake, _force_refresh=frozenset([(dataset_name, table.name)])
        )

    def retract_table(self, dataset_name: str, table_name: str) -> bool:
        """Remove a table's triples, similarity edges and embeddings.

        The graph side is ``QuadStore.replace_nodes(nodes, ())`` over the
        table's footprint nodes: node-scoped buckets of the dataset graph's
        hash indexes plus the partial quoted-triple indexes (for the RDF-star
        score annotations), so retraction never scans the whole graph.
        Dataset / source nodes shared with other tables are
        left in place, but a dataset's node goes with its last table (a
        one-shot govern of the remaining lake never creates it); pipeline
        graphs are untouched (their ``reads`` edges reference the table node
        URI, which a refresh re-creates).  Returns
        ``False`` when the table was never governed.  The whole retraction
        commits as one write batch: readers never observe a partially
        retracted table.
        """
        self._ensure_writable()
        service = self._route_to_service()
        if service is not None:
            report = service.submit_retract(dataset_name, table_name).result()
            return bool(report.retracted_tables)
        key = (dataset_name, table_name)
        profile = self._profiles_by_key.get(key)
        if profile is None:
            return False
        snapshot = self._profile_state_snapshot()
        self._profiles_by_key.pop(key, None)
        self._fingerprints_by_key.pop(key, None)
        # Identity-based removal: TableProfile dataclass equality would
        # compare embedded numpy arrays.
        self.table_profiles = [p for p in self.table_profiles if p is not profile]
        with self.storage.transaction():
            self._register_state_rollback(
                lambda: self._restore_profile_state(snapshot)
            )
            nodes = self._retire_footprint(dataset_name, table_name, profile)
            self.storage.graph.replace_nodes(nodes, (), DATASET_GRAPH)
        return True

    def _retire_footprint(
        self, dataset_name: str, table_name: str, profile: TableProfile
    ) -> List[URIRef]:
        """Drop one table's embeddings; return the dataset-graph nodes it owns.

        Every triple touching the returned nodes is the table's footprint:
        a retraction replaces it with nothing, a refresh with the
        re-governed rows (``QuadStore.replace_nodes``).  Callers hold an
        open ``storage.transaction()``, so a failure later in the same batch
        restores the embeddings with the graph.
        """
        table_node = table_uri(dataset_name, table_name)
        column_nodes = [
            column_uri(p.dataset_name, p.table_name, p.column_name)
            for p in profile.column_profiles
        ]
        nodes = [table_node] + column_nodes
        # Callers drop the table from the registries first, so an empty scan
        # means this was its dataset's last table (a refresh re-adds the node).
        if not any(dataset == dataset_name for dataset, _ in self._profiles_by_key):
            nodes.append(dataset_uri(dataset_name))
        self.storage.embeddings.remove("table", str(table_node))
        for column_node in column_nodes:
            self.storage.embeddings.remove("column", str(column_node))
        return nodes

    # ------------------------------------------------------------ persistence
    def save(self, directory: PathLike) -> Path:
        """Persist the governed lake to ``directory`` (graph + profiles + embeddings).

        The LiDS graph lands in a sqlite file (just a WAL checkpoint when the
        governor already runs on a sqlite backend at that path, a full copy
        at the live commit version otherwise), every vector in one ``.npz``
        archive — the embedding store plus the column label vectors — and
        table profiles (names, types, statistics) / content fingerprints and
        pipeline abstractions (script, libraries, calls and predicted reads;
        the statements live only in each pipeline's named graph) in JSON.  :meth:`open` restores
        the governor from such a directory in a fresh process.  The whole
        save runs under one read view, so a governor being fed by a
        background service saves a consistent committed state (no
        half-applied batch can land in the snapshot).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        graph_path = directory / _GRAPH_FILE
        with self.storage.graph.read_view():
            return self._save_locked(directory, graph_path)

    def _save_locked(self, directory: Path, graph_path: Path) -> Path:
        backend = self.storage.graph.backend
        # Resolve both sides: a relative/symlinked spelling of the live
        # backend's own path must not fall into the copy branch (which would
        # unlink the database out from under the open connection).
        if (
            isinstance(backend, SqliteBackend)
            and backend.path.resolve() == graph_path.resolve()
        ):
            # Every commit is already durable.  Fold the WAL into the main
            # file so a bare copy of ``graph.sqlite3`` (how replicas ship
            # snapshots) is complete without the ``-wal`` sidecar.
            backend.checkpoint()
        else:
            # Remove the target database *and* any sqlite sidecars: a stale
            # -wal journal next to a freshly created file would be replayed
            # into the new snapshot as a hot journal.
            for suffix in ("", "-wal", "-shm"):
                sidecar = graph_path.with_name(graph_path.name + suffix)
                if sidecar.exists():
                    sidecar.unlink()
            snapshot = QuadStore.sqlite(graph_path)
            # One commit, stamped with the live store's commit version (as a
            # replica's full pull is), so the saved lake resumes where the
            # live store stands.
            with snapshot.replication_batch(self.storage.graph.commit_version):
                for graph_name in self.storage.graph.graphs():
                    snapshot.add_many(self.storage.graph.triples(graph=graph_name), graph_name)
            snapshot.close()
        # ``to_dict`` less its vector fields: a profile's content and table
        # vectors are the embedding store's rows, and only its label vectors
        # join the archive apart from them.
        profiles = [
            {
                "dataset": profile.dataset_name,
                "table": profile.table_name,
                "column_profiles": [
                    {
                        "dataset": column.dataset_name,
                        "table": column.table_name,
                        "column": column.column_name,
                        "fine_grained_type": column.fine_grained_type,
                        "statistics": column.statistics.to_dict(),
                    }
                    for column in profile.column_profiles
                ],
            }
            for profile in self.table_profiles
        ]
        columns = [column for profile in self.table_profiles for column in profile.column_profiles]
        labelled = [
            position for position, column in enumerate(columns) if column.label_embedding is not None
        ]
        labels = [np.asarray(columns[position].label_embedding, dtype=float).ravel() for position in labelled]
        self.storage.embeddings.save(
            directory / _EMBEDDINGS_FILE,
            extra={"label_columns": np.array(labelled, dtype=np.int64), "label_vectors": np.array(labels)},
        )
        profiles_payload = {
            "format": _PROFILES_FORMAT,
            "profiles": profiles,
            "fingerprints": [
                [dataset, table, fingerprint]
                for (dataset, table), fingerprint in self._fingerprints_by_key.items()
            ],
        }
        (directory / _PROFILES_FILE).write_text(json.dumps(profiles_payload))
        pipelines_payload = {
            "format": _PIPELINES_FORMAT,
            "abstractions": [
                abstraction.to_dict() for abstraction in self.abstractions
            ],
            "library_hierarchy": [
                list(edge) for edge in self.abstractor.library_hierarchy_edges()
            ],
        }
        (directory / _PIPELINES_FILE).write_text(json.dumps(pipelines_payload))
        manifest = {
            "format": 1,
            "num_tables": len(self.table_profiles),
            "num_pipelines": len(self.abstractions),
            "num_triples": self.storage.graph.num_triples(),
            "num_embeddings": self.storage.embeddings.count(),
        }
        (directory / _MANIFEST_FILE).write_text(json.dumps(manifest, indent=2))
        return directory

    @classmethod
    def open(
        cls,
        directory: PathLike,
        *,
        graph: Optional[QuadStore] = None,
        **governor_kwargs,
    ) -> "KGGovernor":
        """Reopen a governed lake saved with :meth:`save`.

        The LiDS graph comes back on the sqlite backend (named graphs load
        lazily on first touch), the embedding store and its ANN indexes are
        rebuilt from the archive, and the profile / fingerprint lookups are
        restored — so ``table_profile`` answers, re-adds detect changes, the
        linker resolves tables, and incremental adds continue exactly where
        the saved process stopped, at a fraction of the cost of re-governing.

        ``graph`` lets a caller adopt a store it already opened on the
        directory's graph file (the serving tier's replica pre-syncs its
        store against the writer before the governor constructs).

        Raises :class:`SnapshotFormatError` when ``profiles.json`` or
        ``pipelines.json`` was written in a format newer than this code
        reads; older formats open (a format-1 ``pipelines.json``'s statement
        lists are ignored).
        """
        directory = Path(directory)
        # Both JSON files are checked before the graph file is opened, so a
        # refused directory leaves no connection behind.
        profiles = _read_payload(directory / _PROFILES_FILE, _PROFILES_FORMAT)
        pipelines = _read_payload(directory / _PIPELINES_FILE, _PIPELINES_FORMAT)
        if graph is None:
            graph = QuadStore.sqlite(directory / _GRAPH_FILE)
        embeddings_path = directory / _EMBEDDINGS_FILE
        embeddings = (
            EmbeddingStore.load(embeddings_path)
            if embeddings_path.exists()
            else EmbeddingStore()
        )
        storage = KGLiDSStorage(graph=graph, embeddings=embeddings)
        governor = cls(storage=storage, **governor_kwargs)
        if profiles is not None:
            labels = {}
            if embeddings_path.exists():
                with np.load(embeddings_path) as archive:
                    # A format-1 save kept its label vectors in the JSON; they
                    # are left to be recomputed from the column names.
                    if "label_columns" in archive:
                        labels = dict(zip(archive["label_columns"].tolist(), archive["label_vectors"]))
            position = 0
            for entry in profiles.get("profiles", []):
                # Vectors come back as the embedding store's own rows, so a
                # reopened profile holds the very floats that were saved.
                entry["embedding"] = embeddings.get(
                    "table", str(table_uri(entry["dataset"], entry["table"]))
                )
                for column_entry in entry["column_profiles"]:
                    column_entry["embedding"] = embeddings.get(
                        "column",
                        str(column_uri(entry["dataset"], entry["table"], column_entry["column"])),
                    )
                    column_entry["label_embedding"] = labels.get(position)
                    position += 1
                profile = TableProfile.from_dict(entry)
                governor.table_profiles.append(profile)
                governor._profiles_by_key[
                    (profile.dataset_name, profile.table_name)
                ] = profile
            for dataset, table, fingerprint in profiles.get("fingerprints", []):
                governor._fingerprints_by_key[(dataset, table)] = fingerprint
        if pipelines is not None:
            for entry in pipelines.get("abstractions", []):
                abstraction = AbstractedPipeline.from_dict(entry)
                governor.abstractions.append(abstraction)
                governor._abstractions_by_id[abstraction.pipeline_id] = abstraction
            for child, parent in pipelines.get("library_hierarchy", []):
                governor.abstractor.library_hierarchy.add((child, parent))
        # The linker's table-resolution cache is *not* warmed eagerly: doing
        # so would force the dataset shard to load even when the reopened
        # governor never links a pipeline.  It rebuilds itself from the
        # reloaded graph on the first link (keyed on the graph version).
        return governor

    def close(self) -> None:
        """Release the storage bundle (required for sqlite backends).

        Idempotent: double-close and close-after-a-failed-batch are no-ops
        (a failed batch already rolled back; every commit is durable).
        """
        self.storage.close()

    # ----------------------------------------------------------------- lookups
    def table_profile(self, dataset_name: str, table_name: str) -> Optional[TableProfile]:
        """Find the stored profile of a table (O(1) dict lookup)."""
        return self._profiles_by_key.get((dataset_name, table_name))

    def _store_embeddings(self, table_profiles: Sequence[TableProfile]) -> None:
        table_items = []
        column_items = []
        for table_profile in table_profiles:
            if table_profile.embedding is not None:
                table_items.append(
                    (
                        str(table_uri(table_profile.dataset_name, table_profile.table_name)),
                        table_profile.embedding,
                    )
                )
            for profile in table_profile.column_profiles:
                column_items.append(
                    (
                        str(
                            column_uri(
                                profile.dataset_name, profile.table_name, profile.column_name
                            )
                        ),
                        profile.embedding,
                    )
                )
        self.storage.embeddings.put_many("table", table_items)
        self.storage.embeddings.put_many("column", column_items)
