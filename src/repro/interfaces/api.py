"""The user-facing read surface over the LiDS graph.

* :class:`KGLiDS` — the paper's facade: pre-defined discovery operations
  plus ad-hoc SPARQL over a bootstrapped governor.  Multi-lookup operations
  run inside one store read view, so they observe a single committed state
  even while a :class:`~repro.kg.service.GovernorService` ingests on a
  background thread.
* :class:`LiDSClient` — the unified entry point: it fronts a live service,
  a plain governor, or a saved governor directory
  (:meth:`LiDSClient.open`, read-only) with the same API.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.automation.cleaning import CleaningRecommender
from repro.automation.transformation import TransformationRecommendation, TransformationRecommender
from repro.automl.kgpip import AutoMLResult, EstimatorRecommendation, KGpipAutoML
from repro.kg.governor import KGGovernor
from repro.kg.ontology import DATASET_GRAPH, LiDSOntology, library_uri, table_uri
from repro.kg.service import GovernorService
from repro.kg.storage import KGLiDSStorage
from repro.pipelines.abstraction import PipelineScript
from repro.rdf import RDF, Literal, URIRef
from repro.sparql.expression import to_python
from repro.tabular import Column, DataLake, Table

#: Keyword search conditions: a flat string is one disjunctive term, a nested
#: list is a conjunctive group of terms (paper example:
#: ``[['heart', 'disease'], 'patients']``).
KeywordConditions = Sequence[Union[str, Sequence[str]]]


# ------------------------------------------------------------ derived views
# Built once per version of a graph (``QuadStore.derived_view``) from the id
# columns and index buckets the SPARQL engine already scans.
def _text(dictionary: Any, term_id: int) -> str:
    return str(to_python(dictionary.decode(term_id)))


def _object_ids(columns: Any, index: Any, predicate: URIRef, subject_ids: np.ndarray) -> np.ndarray:
    """Per subject id, the id of its ``predicate`` object in this graph (0 = none)."""
    found = np.zeros(len(subject_ids), np.int64)
    predicate_id = index.dictionary.lookup(predicate)
    if predicate_id is None or not len(subject_ids):
        return found
    subjects, objects = columns.predicate_rows(predicate_id, index)
    if not len(subjects):
        return found
    order = np.argsort(subjects, kind="stable")
    rows = order[np.searchsorted(subjects, subject_ids, sorter=order).clip(max=len(order) - 1)]
    return np.where(subjects[rows] == subject_ids, objects[rows], found)


class JoinGraph(NamedTuple):
    """The ``joinableWith`` edges as undirected CSR adjacency.

    Nodes are numbered in ascending table-URI order and each node's
    neighbours are stored ascending, so a traversal's choices never depend
    on the store's physical layout.
    """

    node_of: Dict[str, int]
    labels: List[str]
    offsets: List[int]
    neighbours: List[int]

    def reach(self, start: int, hops: Optional[int], target: Optional[int] = None) -> Dict[int, int]:
        """Breadth-first ``node -> predecessor`` map, in discovery order.

        Expands at most ``hops`` levels (``None``: until exhausted) and stops
        after the level that reaches ``target``.  The first discovery of a
        node wins, so among equal-length paths the one through the
        earliest-discovered predecessor — ties broken by URI — is kept.
        """
        predecessor = {start: start}
        frontier = [start]
        offsets, neighbours = self.offsets, self.neighbours
        level = 0
        while frontier and (hops is None or level < hops) and target not in predecessor:
            level += 1
            discovered = []
            for node in frontier:
                for neighbour in neighbours[offsets[node] : offsets[node + 1]]:
                    if neighbour not in predecessor:
                        predecessor[neighbour] = node
                        discovered.append(neighbour)
            frontier = discovered
        return predecessor

    def path_labels(self, predecessor: Dict[int, int], node: int) -> List[str]:
        """Labels along the kept path from the traversal's start to ``node``."""
        path = [node]
        while predecessor[path[-1]] != path[-1]:
            path.append(predecessor[path[-1]])
        return [self.labels[step] for step in reversed(path)]


def _build_join_graph(columns: Any, index: Any) -> JoinGraph:
    dictionary = index.dictionary
    predicate_id = dictionary.lookup(LiDSOntology.joinableWith)
    subjects, objects = (
        columns.predicate_rows(predicate_id, index) if predicate_id is not None else ((), ())
    )
    node_ids = np.unique(np.concatenate([subjects, objects])).astype(np.int64)
    count = len(node_ids)
    uris = [str(dictionary.decode(node_id)) for node_id in node_ids.tolist()]
    by_uri = sorted(range(count), key=uris.__getitem__)
    number = np.empty(count, np.int64)
    number[by_uri] = np.arange(count)
    sources = number[np.searchsorted(node_ids, subjects)]
    targets = number[np.searchsorted(node_ids, objects)]
    # Both directions of every edge as one sorted, de-duplicated code list.
    edges = np.unique(np.concatenate([sources * count + targets, targets * count + sources]))
    name_ids = _object_ids(columns, index, LiDSOntology.hasName, node_ids)
    uris = [uris[position] for position in by_uri]
    return JoinGraph(
        node_of={uri: node for node, uri in enumerate(uris)},
        labels=[
            _text(dictionary, name_id) if name_id else uri
            for name_id, uri in zip(name_ids[by_uri].tolist(), uris)
        ],
        offsets=np.searchsorted(edges // max(count, 1), np.arange(count + 1)).tolist(),
        neighbours=(edges % max(count, 1)).tolist(),
    )


def _build_table_texts(columns: Any, index: Any) -> List[Dict[str, str]]:
    """What keyword search reports of each table that has a name and a named
    dataset, plus ``searchable`` (those names and the column names,
    lower-cased) — in ascending table-URI order, column names ascending."""
    ontology = LiDSOntology
    dictionary = index.dictionary
    lookup = dictionary.lookup
    type_id, part_id = lookup(RDF.type), lookup(ontology.isPartOf)
    if type_id is None or part_id is None:
        return []
    typed, types = columns.predicate_rows(type_id, index)
    parts, wholes = columns.predicate_rows(part_id, index)
    is_column = np.isin(parts, typed[types == (lookup(ontology.Column) or 0)])
    column_names: Dict[int, List[str]] = defaultdict(list)
    name_ids = _object_ids(columns, index, ontology.hasName, parts[is_column])
    for table_id, name_id in zip(wholes[is_column].tolist(), name_ids.tolist()):
        if name_id:
            column_names[table_id].append(_text(dictionary, name_id))
    table_ids = typed[types == (lookup(ontology.Table) or 0)]
    dataset_ids = _object_ids(columns, index, ontology.isPartOf, table_ids)
    texts = []
    for table_id, name_id, dataset_name_id in zip(
        table_ids.tolist(),
        _object_ids(columns, index, ontology.hasName, table_ids).tolist(),
        _object_ids(columns, index, ontology.hasName, dataset_ids).tolist(),
    ):
        if name_id and dataset_name_id:
            table, dataset = _text(dictionary, name_id), _text(dictionary, dataset_name_id)
            names = sorted(column_names.get(table_id, ()))
            texts.append(
                {
                    "dataset": dataset,
                    "table": table,
                    "table_uri": str(dictionary.decode(table_id)),
                    "columns": ", ".join(names),
                    "searchable": " ".join([table, dataset] + names).lower(),
                }
            )
    return sorted(texts, key=lambda text: text["table_uri"])


class _RankedNeighbours(dict):
    """``(relation, table URI) -> ranked rows`` over one dataset-graph snapshot.

    Starts empty: the first ask for an anchor ranks the tables its
    ``withCertainty``-annotated ``relation`` edges reach (from the anchor's
    quoted-subject bucket), joined to their name and their dataset's name —
    by score descending, then table URI — and later asks slice that list.
    """

    def __init__(self, columns: Any, index: Any):
        super().__init__()
        self.index = index

    def __missing__(self, key: Tuple[URIRef, URIRef]) -> List[Dict[str, Any]]:
        index = self.index
        dictionary = index.dictionary
        ontology = LiDSOntology
        terms = (*key, ontology.withCertainty, ontology.hasName, ontology.isPartOf)
        ids = [dictionary.lookup(term) for term in terms]
        if None in ids:
            return []  # an unknown anchor is not remembered
        relation_id, anchor_id, certainty_id, name_id, part_id = ids

        def objects(subject: int, predicate: int) -> List[int]:
            return [o for _, p, o in index.by_subject.get(subject, ()) if p == predicate]

        rows = []
        for quoted, predicate, score in index.by_quoted_subject.get(anchor_id, ()):
            _, quoted_relation, other = dictionary.quoted_parts(quoted)
            if predicate != certainty_id or quoted_relation != relation_id:
                continue
            for dataset in objects(other, part_id):
                for table_name, dataset_name in product(objects(other, name_id), objects(dataset, name_id)):
                    rows.append(
                        {
                            "dataset": to_python(dictionary.decode(dataset_name)),
                            "table": to_python(dictionary.decode(table_name)),
                            "table_uri": str(dictionary.decode(other)),
                            "score": float(to_python(dictionary.decode(score))),
                        }
                    )
        rows.sort(key=lambda row: (-row["score"], row["table_uri"]))
        self[key] = rows
        return rows


def _library_uses(columns: Any, index: Any) -> Tuple[Dict[int, Set[int]], ...]:
    """One graph's share of the library roll-up, as id maps: ``library ->
    pipelines`` (``?statement callsLibrary ?library . ?statement isPartOf
    ?pipeline``), ``pipeline -> hasTaskType`` and ``subject -> hasName``."""
    lookup = index.dictionary.lookup

    def grouped(predicate: URIRef) -> Dict[int, Set[int]]:
        objects: Dict[int, Set[int]] = defaultdict(set)
        for subject, _, obj in index.by_predicate.get(lookup(predicate), ()):
            objects[subject].add(obj)
        return objects

    ontology = LiDSOntology
    part_of = grouped(ontology.isPartOf)
    uses: Dict[int, Set[int]] = defaultdict(set)
    for statement, libraries in grouped(ontology.callsLibrary).items():
        for library in libraries:
            uses[library] |= part_of.get(statement, set())
    return uses, grouped(ontology.hasTaskType), grouped(ontology.hasName)


def _rank_libraries(dictionary: Any, views: List[Any], task_id: Optional[int] = None) -> List[Tuple[int, str]]:
    """``(-pipelines, name)`` ascending over the per-graph library-use views.

    A library's pipelines are united over the graphs (with ``task_id``, only
    pipelines that graph gives that task); its names come from any graph.
    """
    pipelines_of: Dict[int, Set[int]] = defaultdict(set)
    for uses, tasks, _ in views:
        for library, pipelines in uses.items():
            if task_id is not None:
                pipelines = {pipeline for pipeline in pipelines if task_id in tasks.get(pipeline, ())}
            if pipelines:
                pipelines_of[library] |= pipelines
    counted: Dict[str, Set[int]] = defaultdict(set)
    for _, _, names in views:
        for library in names.keys() & pipelines_of.keys():
            for name_id in names[library]:
                counted[_text(dictionary, name_id)] |= pipelines_of[library]
    return sorted((-len(pipelines), name) for name, pipelines in counted.items())


class KGLiDS:
    """User-facing API over a bootstrapped LiDS graph."""

    def __init__(self, governor: KGGovernor):
        self.governor = governor
        self.storage: KGLiDSStorage = governor.storage
        self.cleaning_recommender = CleaningRecommender(
            profiler=governor.profiler, colr_models=governor.colr_models
        )
        self.transformation_recommender = TransformationRecommender(
            profiler=governor.profiler, colr_models=governor.colr_models
        )
        self.kgpip = KGpipAutoML(
            storage=self.storage,
            profiler=governor.profiler,
            colr_models=governor.colr_models,
        )
        #: ``(store, version, roll-up)`` of :meth:`_library_rollup`.
        self._libraries: Optional[Tuple[Any, int, Any]] = None

    # ------------------------------------------------------------ bootstrap
    @classmethod
    def bootstrap(
        cls,
        lake: Optional[DataLake] = None,
        scripts: Optional[Sequence[PipelineScript]] = None,
        train_models: bool = True,
        governor: Optional[KGGovernor] = None,
    ) -> "KGLiDS":
        """Build the LiDS graph from a data lake and pipeline scripts.

        With ``train_models`` the cleaning and transformation GNNs are trained
        from the operations observed in the abstracted pipelines (when any are
        found) and registered with the Model Manager.
        """
        governor = governor or KGGovernor()
        governor.bootstrap(lake=lake, scripts=scripts)
        platform = cls(governor)
        if train_models:
            platform.cleaning_recommender.train_from_kg(platform.storage)
            platform.transformation_recommender.train_from_kg(platform.storage)
        return platform

    # ----------------------------------------------------------- consistency
    def read_view(self):
        """A consistent read scope over the LiDS graph (context manager).

        Everything read inside one view belongs to a single committed store
        state: ingestion batches applied by a background
        :class:`~repro.kg.service.GovernorService` either precede the whole
        view or wait for it.  Single queries already get a view implicitly;
        use this to make *sequences* of calls mutually consistent.
        """
        return self.storage.graph.read_view()

    # ----------------------------------------------------------- ad-hoc query
    def query(self, sparql: str) -> Table:
        """Run an ad-hoc SPARQL SELECT query; results come back as a Table."""
        return self.storage.query(sparql).to_table()

    # -------------------------------------------------------- keyword search
    def search_keywords(self, conditions: KeywordConditions) -> Table:
        """Search tables whose names, dataset names or column names match.

        Nested lists are conjunctive (all terms must appear), top-level
        entries are combined disjunctively; a bare string is one disjunctive
        term and no condition at all matches every table.  Matching is
        case-insensitive substring search.  Rows come in ascending table-URI
        order and ``columns`` lists the column names ascending, whatever the
        store's layout.
        """
        if isinstance(conditions, str):
            conditions = [conditions]
        groups: List[List[str]] = []
        for condition in conditions:
            terms = [condition] if isinstance(condition, str) else condition
            if not isinstance(terms, Sequence) or not all(isinstance(term, str) for term in terms):
                raise TypeError(
                    "a keyword condition is a string or a sequence of strings; "
                    f"got {condition!r}"
                )
            groups.append([term.lower() for term in terms])
        with self.read_view():
            texts = self.storage.graph.derived_view(
                DATASET_GRAPH, "interfaces.table_texts", _build_table_texts
            )
        rows = [
            text
            for text in texts
            if not groups or any(all(term in text["searchable"] for term in group) for group in groups)
        ]
        return self._rows_to_table("search_results", rows, ["dataset", "table", "table_uri", "columns"])

    # ----------------------------------------------------------- discovery
    def get_unionable_tables(self, dataset: str, table: str, k: int = 10) -> Table:
        """Tables unionable with the given table, ranked by score."""
        return self._related_tables(dataset, table, LiDSOntology.unionableWith, k)

    def get_joinable_tables(self, dataset: str, table: str, k: int = 10) -> Table:
        """Tables joinable with the given table, ranked by score."""
        return self._related_tables(dataset, table, LiDSOntology.joinableWith, k)

    def _related_tables(self, dataset: str, table: str, relation: URIRef, k: int) -> Table:
        """The top ``k`` by score, ties broken by table URI.  The first call
        for a table after a dataset-graph commit ranks its neighbours; later
        calls slice that ranking."""
        with self.read_view():
            ranked = self.storage.graph.derived_view(
                DATASET_GRAPH, "interfaces.ranked_neighbours", _RankedNeighbours
            )[relation, table_uri(dataset, table)]
        return self._rows_to_table(
            "related_tables", ranked[: int(k)], ["dataset", "table", "table_uri", "score"]
        )

    def find_unionable_columns(
        self, dataset_a: str, table_a: str, dataset_b: str, table_b: str
    ) -> Table:
        """Matched (unionable) column pairs between two tables with their scores."""
        with self.read_view():
            return self._find_unionable_columns(dataset_a, table_a, dataset_b, table_b)

    def _find_unionable_columns(
        self, dataset_a: str, table_a: str, dataset_b: str, table_b: str
    ) -> Table:
        ontology = LiDSOntology
        store = self.storage.graph
        node_a = table_uri(dataset_a, table_a)
        node_b = table_uri(dataset_b, table_b)
        columns_a = [t.subject for t in store.triples(None, ontology.isPartOf, node_a, graph=DATASET_GRAPH)]
        rows = []
        for column_node in columns_a:
            if not store.contains(column_node, RDF.type, ontology.Column, graph=DATASET_GRAPH):
                continue
            for predicate in (ontology.hasLabelSimilarity, ontology.hasContentSimilarity):
                for triple in store.triples(column_node, predicate, None, graph=DATASET_GRAPH):
                    other = triple.object
                    if not store.contains(other, ontology.isPartOf, node_b, graph=DATASET_GRAPH):
                        continue
                    score = store.annotation(
                        column_node, predicate, other, ontology.withCertainty, graph=DATASET_GRAPH, default=0.0
                    )
                    rows.append(
                        {
                            "column_a": str(store.value(column_node, ontology.hasName, graph=DATASET_GRAPH)),
                            "column_b": str(store.value(other, ontology.hasName, graph=DATASET_GRAPH)),
                            "similarity": predicate.local_name(),
                            "score": float(score),
                        }
                    )
        deduplicated: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for row in rows:
            key = (row["column_a"], row["column_b"])
            if key not in deduplicated or row["score"] > deduplicated[key]["score"]:
                deduplicated[key] = row
        ordered = sorted(deduplicated.values(), key=lambda row: -row["score"])
        return self._rows_to_table(
            "unionable_columns", ordered, ["column_a", "column_b", "similarity", "score"]
        )

    # ------------------------------------------------------------ join paths
    def _join_graph(self) -> JoinGraph:
        return self.storage.graph.derived_view(
            DATASET_GRAPH, "interfaces.join_graph", _build_join_graph
        )

    def get_path_to_table(self, dataset: str, table: str, hops: int = 2) -> Table:
        """Join paths (up to ``hops`` edges) from the given table to other tables.

        One row per reachable table, carrying a shortest path to it.  The
        answer is a function of the graph alone: neighbours are expanded in
        ascending table-URI order and the first discovery of a table fixes
        its path; rows are ordered by ``(hops, target_table, table URI)``.
        """
        with self.read_view():
            join_graph = self._join_graph()
        start = join_graph.node_of.get(str(table_uri(dataset, table)))
        rows = []
        if start is not None:
            predecessor = join_graph.reach(start, hops)
            for target in sorted(predecessor):  # node numbers ascend with the URIs
                if target != start:
                    path = join_graph.path_labels(predecessor, target)
                    rows.append(
                        {"target_table": path[-1], "hops": len(path) - 1, "path": " -> ".join(path)}
                    )
        rows.sort(key=lambda row: (row["hops"], row["target_table"]))
        return self._rows_to_table("join_paths", rows, ["target_table", "hops", "path"])

    def get_shortest_path_between_tables(
        self, dataset_a: str, table_a: str, dataset_b: str, table_b: str
    ) -> Optional[List[str]]:
        """Shortest join path between two tables (labels), or ``None``.

        Among equal-length paths the choice follows :meth:`get_path_to_table`.
        """
        with self.read_view():
            join_graph = self._join_graph()
        source = join_graph.node_of.get(str(table_uri(dataset_a, table_a)))
        target = join_graph.node_of.get(str(table_uri(dataset_b, table_b)))
        if source is None or target is None:
            return None
        predecessor = join_graph.reach(source, None, target)
        return join_graph.path_labels(predecessor, target) if target in predecessor else None

    # ----------------------------------------------------- library discovery
    def get_top_k_library_used(self, k: int = 10) -> Table:
        """The top-k libraries by number of distinct pipelines calling them (Fig. 4).

        Libraries tying on the count rank by name, so the cut at ``k`` does
        not depend on the store's layout.
        """
        return self.get_top_used_libraries(k)

    def get_top_used_libraries(self, k: int = 10, task: Optional[str] = None) -> Table:
        """Top-k libraries, optionally restricted to pipelines of a given task.

        Slices the store-wide ranking, built once per store version
        (:meth:`_library_rollup`); a ``task`` ranks that roll-up's per-graph
        views again, counting only that task's pipelines.
        """
        store = self.storage.graph
        with self.read_view():
            views, ranked = self._library_rollup()
            if task is not None:
                task_id = store.dictionary.lookup(Literal(task))
                ranked = [] if task_id is None else _rank_libraries(store.dictionary, views, task_id)
        rows = [{"library_name": name, "num_pipelines": -count} for count, name in ranked[: int(k)]]
        return self._rows_to_table("top_libraries", rows, ["library_name", "num_pipelines"])

    def _library_rollup(self) -> Tuple[List[Any], List[Tuple[int, str]]]:
        """Every graph's library-use view (rebuilt only when that graph
        changes) and their ranking over all tasks.

        Built once per :attr:`QuadStore.version`, inside the caller's read
        view; one built inside an open write batch, which may yet roll back,
        is not kept.
        """
        store = self.storage.graph
        kept = self._libraries
        if kept is not None and kept[0] is store and kept[1] == store.version:
            return kept[2]
        views = [
            store.derived_view(graph, "interfaces.library_uses", _library_uses)
            for graph in store.graphs()
        ]
        rollup = (views, _rank_libraries(store.dictionary, views))
        if not store.in_write_batch:
            self._libraries = (store, store.version, rollup)
        return rollup

    def get_pipelines_calling_libraries(self, *qualified_calls: str) -> Table:
        """Pipelines whose statements call every one of the given functions."""
        patterns = []
        for i, call in enumerate(qualified_calls):
            call_node = library_uri(call)
            patterns.append(f"?s{i} kglids:callsFunction <{call_node}> . ?s{i} kglids:isPartOf ?pipeline .")
        body = "\n".join(patterns)
        result = self.storage.query(
            f"""
            SELECT DISTINCT ?pipeline ?name ?votes ?author WHERE {{
              GRAPH ?g {{
                {body}
                ?pipeline kglids:hasName ?name .
                ?pipeline kglids:hasVotes ?votes .
                ?pipeline kglids:hasAuthor ?author .
              }}
            }}
            ORDER BY DESC(?votes)
            """
        )
        return result.to_table("pipelines")

    # ------------------------------------------------------------ automation
    def recommend_cleaning_operations(self, table: Table) -> List[Tuple[str, float]]:
        """Ranked cleaning operations for an unseen table."""
        return self.cleaning_recommender.recommend_cleaning_operations(table)

    def apply_cleaning_operations(
        self, operations: Sequence[Tuple[str, float]], table: Table
    ) -> Table:
        """Apply the top recommended cleaning operation."""
        return self.cleaning_recommender.apply_cleaning_operations(operations, table)

    def recommend_transformations(
        self, table: Table, target: Optional[str] = None
    ) -> TransformationRecommendation:
        """Recommended scaling + unary transformations for an unseen table."""
        return self.transformation_recommender.recommend_transformations(table, target=target)

    def apply_transformations(
        self,
        recommendation: TransformationRecommendation,
        table: Table,
        target: Optional[str] = None,
    ) -> Table:
        """Apply a transformation recommendation."""
        return self.transformation_recommender.apply_transformations(
            recommendation, table, target=target
        )

    # ----------------------------------------------------------------- AutoML
    def recommend_ml_models(
        self, table: Table, task: str = "classification", k: int = 5
    ) -> Table:
        """Classifiers used on the most similar dataset, ranked by votes."""
        recommendations = self.kgpip.recommend_ml_models(table, task=task, k=k)
        rows = [
            {
                "estimator": recommendation.estimator_name,
                "votes": recommendation.votes,
                "similarity": round(recommendation.similarity, 4),
                "hyperparameter_priors": str(recommendation.hyperparameter_priors),
            }
            for recommendation in recommendations
        ]
        return self._rows_to_table(
            "model_recommendations", rows, ["estimator", "votes", "similarity", "hyperparameter_priors"]
        )

    def recommend_hyperparameters(self, estimator_name: str) -> Dict[str, Any]:
        """Most common hyperparameter values recorded for the estimator."""
        return self.kgpip.recommend_hyperparameters(estimator_name)

    def automl(
        self,
        table: Table,
        target: str,
        strategy: str = "evolution",
        **search_kwargs: Any,
    ) -> AutoMLResult:
        """Budgeted AutoML search for ``table``/``target`` over this graph.

        The default strategy is the evolutionary pipeline-graph optimizer
        seeded by KG priors (:mod:`repro.automl.evolution`); pass
        ``strategy="random"`` for the deduped budgeted random baseline.
        Keyword arguments (``max_evaluations``, ``time_budget_seconds``,
        ``cv``, ``population_size``, ``generations``, ``cache``) forward to
        :meth:`~repro.automl.kgpip.KGpipAutoML.search`.  Works over every
        serving surface — live service, plain governor, or a saved
        directory opened read-only — because the search only *reads* the
        graph.
        """
        return self.kgpip.search(table, target, strategy=strategy, **search_kwargs)

    # ------------------------------------------------------------- statistics
    def statistics(self) -> Dict[str, int]:
        """Statistics Manager view of the platform state."""
        with self.read_view():
            return self.storage.statistics()

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _rows_to_table(name: str, rows: List[Dict[str, Any]], columns: List[str]) -> Table:
        table = Table(name)
        for column_name in columns:
            table.add_column(Column(column_name, [row.get(column_name) for row in rows]))
        return table


class LiDSClient(KGLiDS):
    """One read surface over every way a LiDS graph can be served.

    * ``LiDSClient(service)`` — front a live
      :class:`~repro.kg.service.GovernorService`: reads stay answerable
      while ingestion runs, and every read observes whole committed batches.
    * ``LiDSClient(governor)`` — front a plain (synchronous) governor.
    * ``LiDSClient.open(directory)`` — front a saved governor directory
      *read-only*: discovery works immediately (sqlite shards load lazily),
      while every mutation raises ``PermissionError`` so the saved lake
      cannot be modified by accident.

    The discovery API is exactly :class:`KGLiDS`; this class only decides
    where the graph comes from and whether it may change.
    """

    def __init__(self, source: Union[GovernorService, KGGovernor]):
        if isinstance(source, GovernorService):
            self.service: Optional[GovernorService] = source
            governor = source.governor
        elif isinstance(source, KGGovernor):
            self.service = source._service
            governor = source
        else:
            raise TypeError(
                "LiDSClient fronts a GovernorService or a KGGovernor; "
                f"got {type(source).__name__}"
            )
        #: Set by :meth:`open` — the saved directory this client fronts
        #: (enables :meth:`reopen`) and its delta manifest at open time.
        self._directory: Optional[Path] = None
        self._manifest: Optional[Dict[str, Any]] = None
        super().__init__(governor)

    @classmethod
    def open(cls, directory: Union[str, Path], **governor_kwargs) -> "LiDSClient":
        """Open a saved governor directory for read-only discovery.

        The returned client answers every read operation; the underlying
        governor rejects mutations (``read_only``), so the directory's
        graph, embeddings and profiles stay exactly as saved.
        """
        directory = Path(directory)
        governor = KGGovernor.open(directory, **governor_kwargs)
        governor.read_only = True
        client = cls(governor)
        client._directory = directory
        client._manifest = cls._read_delta_manifest(directory)
        return client

    @staticmethod
    def _read_delta_manifest(directory: Path) -> Optional[Dict[str, Any]]:
        from repro.kg.governor import _DELTA_FILE

        path = directory / _DELTA_FILE
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def reopen(self) -> Dict[str, Any]:
        """Cheaply re-open this directory-backed client in place.

        For clients created with :meth:`open` whose directory was updated
        underneath them (a replica pulling a fresh snapshot): re-reads the
        sqlite file through the existing backend, *reusing* the interned
        term dictionary and invalidating only the ``GraphIndex``es of
        graphs whose shard changed according to the delta manifests — a
        fraction of a cold reopen.  In-flight read views finish on the old
        snapshot first (the swap runs under the write gate).  Returns the
        backend's info dict.
        """
        if self._directory is None:
            raise RuntimeError("reopen() requires a client created by LiDSClient.open")
        old = self._manifest
        new = self._read_delta_manifest(self._directory)
        changed: Optional[List[URIRef]] = None
        if (
            old is not None
            and new is not None
            and old.get("store_uid") is not None
            and old.get("store_uid") == new.get("store_uid")
        ):
            old_graphs = old.get("graphs", {})
            changed = [
                URIRef(name)
                for name, entry in new.get("graphs", {}).items()
                if old_graphs.get(name) != entry
            ]
        info = self.storage.graph.reopen(changed_graphs=changed)
        self._manifest = new
        return info

    @property
    def read_only(self) -> bool:
        """Whether this client fronts a read-only (opened) governor."""
        return self.governor.read_only

    @property
    def commit_version(self) -> int:
        """The fronted graph's committed write-batch counter.

        The staleness currency of the serving tier: a replica reports its
        pinned version and the lag to its source in these units.
        """
        return self.storage.graph.commit_version

    @property
    def replication_lag(self) -> int:
        """Commit versions this client trails its replication source by.

        Always 0 here — an in-process client reads the authoritative graph
        directly; replicas (``repro.serving``) report their real lag.
        """
        return 0

    def stats(self) -> Dict[str, Any]:
        """Serving-tier telemetry: versions, staleness, SPARQL engine and
        service counters (``engine`` is :meth:`SPARQLEngine.stats`, so a
        replica's answer-memo hit ratio reads over the ``stats`` RPC)."""
        payload: Dict[str, Any] = {
            "commit_version": self.commit_version,
            "replication_lag": self.replication_lag,
            "read_only": self.read_only,
            "engine": self.storage.engine.stats(),
        }
        if self.service is not None:
            payload["service"] = self.service.stats
        return payload

    @property
    def quarantined(self) -> List[Any]:
        """Keys the fronted service refuses fast after repeated failures.

        Empty when the client fronts a plain governor (no service, no
        scheduler, hence no quarantine ledger).
        """
        if self.service is None:
            return []
        return self.service.quarantined

    @property
    def quarantine_reasons(self) -> Dict[Any, BaseException]:
        """``key -> last error`` for every quarantined key (see service)."""
        if self.service is None:
            return {}
        return self.service.quarantine_reasons

    def crawl(self, *roots: Union[str, Path], start: bool = True, **crawler_kwargs):
        """Continuously govern one or more lake directories.

        Builds a :class:`~repro.crawler.DirectorySource` per root (the
        layout rule of :meth:`DataLake.from_directory`), wires them into a
        :class:`~repro.crawler.LakeCrawler` feeding this client's service,
        and starts the daemon (pass ``start=False`` to drive
        ``scan_once()`` manually).  Keyword arguments go to the crawler
        (``scan_interval``, ``rate_limit``, breaker/backoff knobs, ...).

        The returned crawler is caller-owned: ``crawler.close()`` stops
        it without touching the service.  Requires a live service — a
        plain or read-only governor has no ingestion queue to feed.
        """
        from repro.crawler import DirectorySource, LakeCrawler

        if self.service is None or self.service.closed:
            raise RuntimeError(
                "crawl() needs a live GovernorService (open or wrap one; a "
                "plain/read-only governor has no ingestion queue)"
            )
        if not roots:
            raise ValueError("crawl() needs at least one root directory")
        sources = [DirectorySource(root) for root in roots]
        crawler = LakeCrawler(self.service, sources, **crawler_kwargs)
        return crawler.start() if start else crawler

    def clear_quarantine(self, key: Optional[Any] = None) -> None:
        """Lift the service's quarantine for one key (or all of them).

        A no-op without a fronting service, so callers can always invoke
        it after fixing bad source data regardless of how the graph is
        served.
        """
        if self.service is not None:
            self.service.clear_quarantine(key)

    def close(self) -> None:
        """Release the underlying storage (flushes sqlite-backed graphs).

        Idempotent: the governor's close is safe to call twice, so a
        client may appear in multiple ``finally`` blocks.  For a
        service-fronted client, close the service first (or let it
        drain): closing storage under a live scheduler would fail every
        in-flight ticket on a closed backend, so it is rejected here.
        """
        if self.service is not None and not self.service.closed:
            raise RuntimeError(
                "close the GovernorService before closing the client "
                "(a live scheduler still writes through this storage)"
            )
        self.governor.close()
