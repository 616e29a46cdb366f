"""The Data Global Schema Builder (Algorithm 3).

Given column profiles produced by the profiler, the builder writes two kinds
of content into the dataset named graph:

* **metadata subgraphs** — dataset / table / column nodes with their
  statistics as data properties;
* **similarity edges** — for every pair of columns of the same fine-grained
  type in different tables, label similarity (word embeddings over column
  names, threshold ``alpha``), and content similarity (CoLR embedding cosine,
  threshold ``theta``, or true-ratio difference for booleans, threshold
  ``beta``), each annotated with its score via RDF-star.

From the column similarity edges the builder derives table-level
``unionableWith`` / ``joinableWith`` edges whose score combines the number of
matching columns and their similarity scores.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.embeddings.words import WordEmbeddingModel, default_word_model, tokenize_label
from repro.kg.ontology import (
    DATASET_GRAPH,
    LiDSOntology,
    column_uri,
    dataset_uri,
    source_uri,
    table_uri,
)
from repro.parallel import JobExecutor
from repro.profiler.profile import ColumnProfile, TableProfile
from repro.rdf import Literal, QuadStore, QuotedTriple, RDF, RDFS, URIRef
from repro.types import TYPE_BOOLEAN


@dataclass
class SimilarityThresholds:
    """The user-defined thresholds of Algorithm 3.

    ``alpha`` gates label similarity, ``beta`` gates boolean true-ratio
    similarity and ``theta`` gates CoLR content similarity.  Higher values
    produce fewer but more precise edges.
    """

    alpha: float = 0.80
    beta: float = 0.90
    theta: float = 0.985


@dataclass
class ColumnSimilarityEdge:
    """A materialized column similarity relationship."""

    column_a: str  # column id "dataset/table/column"
    column_b: str
    kind: str  # "label" or "content"
    score: float


@dataclass
class IncrementalBuildPlan:
    """The pure-compute half of an incremental build, ready to be applied.

    Produced by :meth:`DataGlobalSchemaBuilder.plan_incremental` without
    touching the store, so the expensive similarity scoring can run while
    readers keep querying; :meth:`DataGlobalSchemaBuilder.apply_incremental`
    then writes everything inside one short commit batch.
    """

    edges: List[ColumnSimilarityEdge]
    table_scores: Dict[Tuple[str, str, str], float]


class DataGlobalSchemaBuilder:
    """Builds the dataset graph from table profiles (Algorithm 3)."""

    def __init__(
        self,
        thresholds: Optional[SimilarityThresholds] = None,
        word_model: Optional[WordEmbeddingModel] = None,
        use_label_similarity: bool = True,
        use_content_similarity: bool = True,
        executor: Optional[JobExecutor] = None,
        source_name: str = "data_lake",
    ):
        self.thresholds = thresholds or SimilarityThresholds()
        # Profiles carry label embeddings computed by the *default* word
        # model; a custom model recomputes them from the column names.
        self._use_stored_label_embeddings = word_model is None
        self.word_model = word_model or default_word_model()
        self.use_label_similarity = use_label_similarity
        self.use_content_similarity = use_content_similarity
        self.executor = executor or JobExecutor()
        self.source_name = source_name
        #: Cumulative count of the cross-table column pairs scored for
        #: content similarity.  Scoring is exact, so both keys always agree;
        #: the pair survives because the e2e tracer reads both.
        self.pruning_stats: Dict[str, int] = {"candidate_pairs": 0, "scored_pairs": 0}

    # ------------------------------------------------------------------- API
    def build(
        self, table_profiles: Sequence[TableProfile], store: QuadStore
    ) -> List[ColumnSimilarityEdge]:
        """Write the dataset graph into ``store`` and return the similarity edges."""
        return self.build_incremental(table_profiles, (), store)

    def build_incremental(
        self,
        new_profiles: Sequence[TableProfile],
        existing_profiles: Sequence[TableProfile],
        store: QuadStore,
    ) -> List[ColumnSimilarityEdge]:
        """Extend the dataset graph with ``new_profiles`` only.

        Metadata subgraphs are written for the new tables alone, similarity is
        computed for *new x (new + existing)* column pairs only (existing x
        existing pairs are already materialized from earlier builds), and
        table relationships are re-derived just for the table pairs those new
        edges touch.  Bootstrapping is the special case ``existing = ()``, so
        one-shot and table-by-table construction produce identical graphs:
        every pair is scored exactly, whatever the width of its type group.
        """
        plan = self.plan_incremental(new_profiles, existing_profiles)
        return self.apply_incremental(new_profiles, plan, store)

    def plan_incremental(
        self,
        new_profiles: Sequence[TableProfile],
        existing_profiles: Sequence[TableProfile],
    ) -> IncrementalBuildPlan:
        """Compute the similarity edges and table relationships — no writes.

        This is the expensive half of :meth:`build_incremental` (matrix
        scoring across the executor, table-relationship derivation) kept
        store-free so callers can run it *outside* a write gate and keep
        concurrent readers unblocked while it crunches.
        """
        edges = self.compute_incremental_similarities(new_profiles, existing_profiles)
        all_profiles = list(existing_profiles) + list(new_profiles)
        table_scores = self.derive_table_relationships(all_profiles, edges)
        return IncrementalBuildPlan(edges=edges, table_scores=table_scores)

    def apply_incremental(
        self,
        new_profiles: Sequence[TableProfile],
        plan: IncrementalBuildPlan,
        store: QuadStore,
        replacing: Sequence[URIRef] = (),
    ) -> List[ColumnSimilarityEdge]:
        """Write a planned increment into ``store`` (the cheap, write-only half).

        The metadata subgraphs, similarity edges and table relationships go
        to the dataset graph as one :meth:`QuadStore.replace_nodes` call that
        also takes the place of every triple touching ``replacing`` — a
        refresh passes the stale tables' footprint nodes, so only the rows
        that differ are deleted and inserted.  Callers wanting batch
        atomicity wrap this single call in ``store.write_batch()``; the
        triples written are exactly those :meth:`build_incremental` would
        write.
        """

        def rows():
            # One writer's list at a time: each is encoded and freed before
            # the next is built, so a bulk govern never holds all three.
            yield from self._metadata_rows(new_profiles)
            yield from self._similarity_edge_rows(plan.edges)
            yield from self._table_relationship_rows(plan.table_scores)

        store.replace_nodes(replacing, rows(), DATASET_GRAPH)
        return plan.edges

    # ---------------------------------------------------- metadata subgraphs
    def _metadata_rows(self, table_profiles: Sequence[TableProfile]) -> List[tuple]:
        ontology = LiDSOntology
        source = source_uri(self.source_name)
        rows: List[tuple] = [
            (source, RDF.type, ontology.Source),
            (source, ontology.hasName, Literal(self.source_name)),
        ]
        for table_profile in table_profiles:
            dataset_node = dataset_uri(table_profile.dataset_name)
            table_node = table_uri(table_profile.dataset_name, table_profile.table_name)
            num_rows = (
                table_profile.column_profiles[0].statistics.count
                if table_profile.column_profiles
                else 0
            )
            rows += [
                (dataset_node, RDF.type, ontology.Dataset),
                (dataset_node, ontology.hasName, Literal(table_profile.dataset_name)),
                (dataset_node, ontology.hasSource, source),
                (table_node, RDF.type, ontology.Table),
                (table_node, ontology.hasName, Literal(table_profile.table_name)),
                (table_node, RDFS.label, Literal(table_profile.table_name)),
                (table_node, ontology.isPartOf, dataset_node),
                (table_node, ontology.hasTotalRows, Literal(num_rows)),
                (table_node, ontology.hasTotalColumns, Literal(len(table_profile.column_profiles))),
            ]
            for profile in table_profile.column_profiles:
                rows += self._column_metadata_rows(profile, table_node)
        return rows

    @staticmethod
    def _column_metadata_rows(profile: ColumnProfile, table_node: URIRef) -> List[tuple]:
        ontology = LiDSOntology
        column_node = column_uri(
            profile.dataset_name, profile.table_name, profile.column_name
        )
        statistics = profile.statistics
        rows = [
            (column_node, RDF.type, ontology.Column),
            (column_node, ontology.hasName, Literal(profile.column_name)),
            (column_node, RDFS.label, Literal(profile.column_name)),
            (column_node, ontology.isPartOf, table_node),
            (column_node, ontology.hasFineGrainedType, Literal(profile.fine_grained_type)),
            (column_node, ontology.hasTotalRows, Literal(statistics.count)),
            (column_node, ontology.hasMissingCount, Literal(statistics.missing_count)),
            (column_node, ontology.hasDistinctCount, Literal(statistics.distinct_count)),
        ]
        optional_values = (
            (ontology.hasMinValue, statistics.minimum),
            (ontology.hasMaxValue, statistics.maximum),
            (ontology.hasMeanValue, statistics.mean),
            (ontology.hasStdValue, statistics.std),
            (ontology.hasTrueRatio, statistics.true_ratio),
            (ontology.hasAverageLength, statistics.average_length),
        )
        rows += [
            (column_node, predicate, Literal(float(value)))
            for predicate, value in optional_values
            if value is not None
        ]
        return rows

    # ------------------------------------------------------------ similarity
    def compute_column_similarities(
        self, table_profiles: Sequence[TableProfile]
    ) -> List[ColumnSimilarityEdge]:
        """All cross-table column pairs sharing a fine-grained type.

        Pairs are generated only across different tables (line 7 of
        Algorithm 3 requires ``i != j``; comparing columns of the same table
        adds no discovery value).
        """
        return self.compute_incremental_similarities(table_profiles, ())

    def compute_incremental_similarities(
        self,
        new_profiles: Sequence[TableProfile],
        existing_profiles: Sequence[TableProfile],
    ) -> List[ColumnSimilarityEdge]:
        """Similarity edges for *new x (new + existing)* column pairs only.

        Columns are grouped by fine-grained type; each type group is an
        independent job (the per-type batches the real system ships to Faiss)
        whose label and content scores are computed as dense matrix products
        with threshold masking rather than per-pair Python calls.
        """
        jobs = self._type_group_jobs(new_profiles, existing_profiles)
        if self.executor.backend == "processes" and self._use_stored_label_embeddings:
            results = self.executor.map(
                _score_type_group_worker,
                jobs,
                initializer=_init_builder_worker,
                initargs=(self.process_config(),),
            )
        else:
            results = self.executor.map(lambda job: self._score_type_group(*job), jobs)
        edges: List[ColumnSimilarityEdge] = []
        for group_edges, pairs_scored in results:
            edges.extend(group_edges)
            self.pruning_stats["candidate_pairs"] += pairs_scored
            self.pruning_stats["scored_pairs"] += pairs_scored
        return edges

    def process_config(self) -> Dict[str, object]:
        """The picklable config a worker process rebuilds this builder from."""
        return {
            "thresholds": self.thresholds,
            "use_label_similarity": self.use_label_similarity,
            "use_content_similarity": self.use_content_similarity,
        }

    @staticmethod
    def _type_group_jobs(
        new_profiles: Sequence[TableProfile],
        existing_profiles: Sequence[TableProfile],
    ) -> List[Tuple[str, List[ColumnProfile], List[ColumnProfile]]]:
        """``(fine_type, new columns, existing columns)`` per type with news."""
        new_by_type: Dict[str, List[ColumnProfile]] = defaultdict(list)
        old_by_type: Dict[str, List[ColumnProfile]] = defaultdict(list)
        for table_profile in new_profiles:
            for profile in table_profile.column_profiles:
                new_by_type[profile.fine_grained_type].append(profile)
        for table_profile in existing_profiles:
            for profile in table_profile.column_profiles:
                old_by_type[profile.fine_grained_type].append(profile)
        return [
            (fine_type, new_columns, old_by_type.get(fine_type, []))
            for fine_type, new_columns in new_by_type.items()
        ]

    # ------------------------------------------------------ matrix scoring
    def _score_type_group(
        self,
        fine_type: str,
        new_columns: Sequence[ColumnProfile],
        old_columns: Sequence[ColumnProfile],
    ) -> Tuple[List[ColumnSimilarityEdge], int]:
        """Score all new x (new + old) pairs of one type group at once.

        Returns the edges plus the number of pairs scored for content
        similarity (kept pure so the method can run inside worker processes
        and the caller accumulates the count).
        """
        group = list(new_columns) + list(old_columns)
        num_new = len(new_columns)
        if num_new == 0 or len(group) < 2:
            return [], 0
        valid = self._valid_pair_mask(group, num_new)
        if not valid.any():
            return [], 0
        edges: List[ColumnSimilarityEdge] = []
        if self.use_label_similarity:
            scores = self._label_score_matrix(group, num_new)
            edges.extend(self._edges_from_mask(group, valid & (scores >= self.thresholds.alpha), scores, "label"))
        if not self.use_content_similarity:
            return edges, 0
        if fine_type == TYPE_BOOLEAN:
            scores, threshold = self._boolean_score_matrix(group, num_new), self.thresholds.beta
        else:
            scores, threshold = self._content_score_matrix(group, num_new), self.thresholds.theta
        edges.extend(self._edges_from_mask(group, valid & (scores >= threshold), scores, "content"))
        return edges, int(valid.sum())

    @staticmethod
    def _valid_pair_mask(group: Sequence[ColumnProfile], num_new: int) -> np.ndarray:
        """``mask[i, j]``: compare new column ``i`` against group column ``j``.

        Excludes same-table pairs, and keeps only the upper triangle inside
        the new x new block so each fresh pair is scored exactly once
        (new x old pairs cannot have been scored before, so the full block
        stays on).
        """
        table_ids: Dict[Tuple[str, str], int] = {}
        ids = np.empty(len(group), dtype=np.int64)
        for index, profile in enumerate(group):
            key = (profile.dataset_name, profile.table_name)
            ids[index] = table_ids.setdefault(key, len(table_ids))
        mask = ids[:num_new, None] != ids[None, :]
        mask[:, :num_new] &= np.triu(np.ones((num_new, num_new), dtype=bool), k=1)
        return mask

    def _label_score_matrix(self, group: Sequence[ColumnProfile], num_new: int) -> np.ndarray:
        """:meth:`WordEmbeddingModel.similarity` over the whole group at once.

        Blends label-embedding cosine (mapped to ``[0, 1]``) with Jaccard
        token overlap, exactly like the scalar method: identical token sets
        score 1.0, empty token sets score 0.0.
        """
        vectors = np.stack(
            [
                profile.label_embedding
                if self._use_stored_label_embeddings and profile.label_embedding is not None
                else self.word_model.label_vector(profile.column_name)
                for profile in group
            ]
        )
        cosine = np.clip((vectors[:num_new] @ vectors.T + 1.0) / 2.0, 0.0, 1.0)
        token_sets = [frozenset(tokenize_label(profile.column_name)) for profile in group]
        vocabulary: Dict[str, int] = {}
        for tokens in token_sets:
            for token in tokens:
                vocabulary.setdefault(token, len(vocabulary))
        incidence = np.zeros((len(group), max(1, len(vocabulary))))
        for index, tokens in enumerate(token_sets):
            for token in tokens:
                incidence[index, vocabulary[token]] = 1.0
        sizes = incidence.sum(axis=1)
        intersection = incidence[:num_new] @ incidence.T
        union = sizes[:num_new, None] + sizes[None, :] - intersection
        jaccard = np.divide(
            intersection, union, out=np.zeros_like(intersection), where=union > 0
        )
        scores = np.clip(0.5 * cosine + 0.5 * jaccard, 0.0, 1.0)
        equal_sets = (
            (intersection == sizes[:num_new, None])
            & (intersection == sizes[None, :])
            & (sizes[:num_new, None] > 0)
        )
        scores[equal_sets] = 1.0
        empty = (sizes[:num_new, None] == 0) | (sizes[None, :] == 0)
        scores[empty] = 0.0
        return scores

    @staticmethod
    def _boolean_score_matrix(group: Sequence[ColumnProfile], num_new: int) -> np.ndarray:
        ratios = np.array(
            [profile.statistics.true_ratio or 0.0 for profile in group], dtype=float
        )
        return 1.0 - np.abs(ratios[:num_new, None] - ratios[None, :])

    @staticmethod
    def _content_score_matrix(group: Sequence[ColumnProfile], num_new: int) -> np.ndarray:
        """:func:`repro.embeddings.colr.cosine_similarity` over the whole group."""
        matrix = np.stack(
            [np.asarray(profile.embedding, dtype=float).ravel() for profile in group]
        )
        norms = np.linalg.norm(matrix, axis=1)
        normalized = matrix / np.where(norms > 0, norms, 1.0)[:, None]
        scores = np.clip((normalized[:num_new] @ normalized.T + 1.0) / 2.0, 0.0, 1.0)
        zero = (norms[:num_new, None] == 0) | (norms[None, :] == 0)
        scores[zero] = 0.0
        return scores

    @staticmethod
    def _edges_from_mask(
        group: Sequence[ColumnProfile], hits: np.ndarray, scores: np.ndarray, kind: str
    ) -> List[ColumnSimilarityEdge]:
        return [
            ColumnSimilarityEdge(
                group[i].column_id, group[j].column_id, kind, float(scores[i, j])
            )
            for i, j in np.argwhere(hits)
        ]

    def _similarity_edge_rows(self, edges: Iterable[ColumnSimilarityEdge]) -> List[tuple]:
        label, content = LiDSOntology.hasLabelSimilarity, LiDSOntology.hasContentSimilarity
        return self._scored_edge_rows(
            ((e.column_a, label if e.kind == "label" else content, e.column_b, e.score) for e in edges),
            lambda column_id: column_uri(*column_id.split("/", 2)),
        )

    @staticmethod
    def _scored_edge_rows(edges, node_of) -> List[tuple]:
        """The rows of ``(id_a, predicate, id_b, score)`` edges, both ways.

        Each direction is the asserted triple followed by its RDF-star
        ``withCertainty`` annotation.  ``node_of`` mints a node URI from an
        id; it runs once per distinct id, and each distinct rounded score
        becomes one ``Literal``.
        """
        certainty = LiDSOntology.withCertainty
        node_of, literal = functools.cache(node_of), functools.cache(Literal)
        rows: List[tuple] = []
        for id_a, predicate, id_b, score in edges:
            node_a, node_b, score = node_of(id_a), node_of(id_b), literal(round(score, 4))
            for subject, obj in ((node_a, node_b), (node_b, node_a)):
                rows.append((subject, predicate, obj))
                rows.append((QuotedTriple(subject, predicate, obj), certainty, score))
        return rows

    # --------------------------------------------------- table relationships
    def derive_table_relationships(
        self,
        table_profiles: Sequence[TableProfile],
        edges: Sequence[ColumnSimilarityEdge],
    ) -> Dict[Tuple[str, str, str], float]:
        """Aggregate column similarities into table-level relationship scores.

        Returns ``{(table_id_a, table_id_b, kind): score}`` where ``kind`` is
        ``"unionable"`` (driven by label or content column matches) or
        ``"joinable"`` (driven by content matches).  The unionability score
        greedily matches columns one-to-one by similarity (so a single popular
        column cannot inflate the score through many-to-many matches) and
        normalizes the summed match scores by the smaller table's column
        count — it therefore reflects both how many columns match and how
        strongly they match, as described in Section 3.3.
        """
        column_counts = {
            profile.table_id: max(1, len(profile.column_profiles)) for profile in table_profiles
        }
        per_pair: Dict[Tuple[str, str], Dict[str, Dict[Tuple[str, str], float]]] = defaultdict(
            lambda: {"label": {}, "content": {}}
        )
        for edge in edges:
            table_a = "/".join(edge.column_a.split("/")[:2])
            table_b = "/".join(edge.column_b.split("/")[:2])
            if table_a == table_b:
                continue
            key = tuple(sorted((table_a, table_b)))
            column_key = tuple(sorted((edge.column_a, edge.column_b)))
            bucket = per_pair[key][edge.kind]
            bucket[column_key] = max(bucket.get(column_key, 0.0), edge.score)
        scores: Dict[Tuple[str, str, str], float] = {}
        for (table_a, table_b), buckets in per_pair.items():
            denominator = min(column_counts.get(table_a, 1), column_counts.get(table_b, 1))
            union_matches: Dict[Tuple[str, str], float] = {}
            for bucket in buckets.values():
                for column_key, score in bucket.items():
                    union_matches[column_key] = max(union_matches.get(column_key, 0.0), score)
            matched_total = self._greedy_one_to_one(union_matches)
            if matched_total > 0.0:
                scores[(table_a, table_b, "unionable")] = min(1.0, matched_total / denominator)
            if buckets["content"]:
                scores[(table_a, table_b, "joinable")] = min(
                    1.0, max(buckets["content"].values())
                )
        return scores

    @staticmethod
    def _greedy_one_to_one(pair_scores: Dict[Tuple[str, str], float]) -> float:
        """Sum of scores of a greedy one-to-one column matching."""
        used_left: set = set()
        used_right: set = set()
        total = 0.0
        for (column_a, column_b), score in sorted(pair_scores.items(), key=lambda item: -item[1]):
            if column_a in used_left or column_b in used_right:
                continue
            used_left.add(column_a)
            used_right.add(column_b)
            total += score
        return total

    def _table_relationship_rows(self, table_scores: Dict[Tuple[str, str, str], float]) -> List[tuple]:
        unionable, joinable = LiDSOntology.unionableWith, LiDSOntology.joinableWith
        return self._scored_edge_rows(
            (
                (table_a, unionable if kind == "unionable" else joinable, table_b, score)
                for (table_a, table_b, kind), score in table_scores.items()
            ),
            lambda table_id: table_uri(*table_id.split("/", 1)),
        )


# ---------------------------------------------------------------------------
# Process-pool workers.  One builder is rebuilt per worker process from the
# picklable config (deterministic default word model, so every backend scores
# labels identically); type-group jobs ship ColumnProfiles across the process
# boundary via their dataclass pickle form.
# ---------------------------------------------------------------------------
_WORKER_BUILDER: Optional[DataGlobalSchemaBuilder] = None


def _init_builder_worker(config: Dict[str, object]) -> None:
    """Pool initializer: build the per-process schema builder from its config."""
    global _WORKER_BUILDER
    _WORKER_BUILDER = DataGlobalSchemaBuilder(
        executor=JobExecutor(backend="serial"), **config
    )


def _score_type_group_worker(
    job: Tuple[str, List[ColumnProfile], List[ColumnProfile]]
) -> Tuple[List[ColumnSimilarityEdge], int]:
    """Per-type-group similarity job executed inside a worker process."""
    if _WORKER_BUILDER is None:  # pragma: no cover - initializer always runs
        raise RuntimeError("builder worker used before initialization")
    return _WORKER_BUILDER._score_type_group(*job)
