"""A deliberately naive column-similarity scorer: the differential oracle.

The seed per-pair loop of Algorithm 3 (lines 7-19), moved out of ``src/``:
every cross-table pair of same-typed columns is visited in a Python loop and
scored with the scalar ``WordEmbeddingModel.similarity`` /
``cosine_similarity`` functions — no matrices, no masks, no executor.  It is
slow and obviously right, and the parity tests compare the production kernel
(:meth:`repro.kg.DataGlobalSchemaBuilder.compute_incremental_similarities`)
against it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Optional, Sequence

from repro.embeddings.colr import cosine_similarity
from repro.embeddings.words import WordEmbeddingModel, default_word_model
from repro.kg.dataset_graph import ColumnSimilarityEdge, SimilarityThresholds
from repro.profiler.profile import ColumnProfile, TableProfile
from repro.types import TYPE_BOOLEAN


def column_similarities(
    table_profiles: Sequence[TableProfile],
    thresholds: Optional[SimilarityThresholds] = None,
    word_model: Optional[WordEmbeddingModel] = None,
    use_label_similarity: bool = True,
    use_content_similarity: bool = True,
) -> List[ColumnSimilarityEdge]:
    """Edges over every cross-table pair of same-typed columns, one at a time."""
    thresholds = thresholds or SimilarityThresholds()
    word_model = word_model or default_word_model()
    by_type = defaultdict(list)
    for table_profile in table_profiles:
        for profile in table_profile.column_profiles:
            by_type[profile.fine_grained_type].append(profile)
    edges: List[ColumnSimilarityEdge] = []
    for group in by_type.values():
        for i, left in enumerate(group):
            for right in group[i + 1:]:
                if (left.dataset_name, left.table_name) == (right.dataset_name, right.table_name):
                    continue
                if use_label_similarity:
                    score = word_model.similarity(left.column_name, right.column_name)
                    if score >= thresholds.alpha:
                        edges.append(ColumnSimilarityEdge(left.column_id, right.column_id, "label", score))
                if use_content_similarity:
                    score, threshold = _content_score(left, right, thresholds)
                    if score >= threshold:
                        edges.append(ColumnSimilarityEdge(left.column_id, right.column_id, "content", score))
    return edges


def _content_score(left: ColumnProfile, right: ColumnProfile, thresholds: SimilarityThresholds):
    """``(score, threshold)``: true-ratio closeness for booleans, CoLR cosine otherwise."""
    if left.fine_grained_type == TYPE_BOOLEAN:
        ratio_a = left.statistics.true_ratio or 0.0
        ratio_b = right.statistics.true_ratio or 0.0
        return 1.0 - abs(ratio_a - ratio_b), thresholds.beta
    return cosine_similarity(left.embedding, right.embedding), thresholds.theta


def normalize(edges: Sequence[ColumnSimilarityEdge], digits: int = 9):
    """Order- and orientation-free form of an edge list, for equality checks."""
    return sorted(
        (tuple(sorted((edge.column_a, edge.column_b))), edge.kind, round(edge.score, digits))
        for edge in edges
    )
