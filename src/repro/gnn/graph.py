"""Feature graphs: nodes with dense features, undirected edges, optional labels."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class FeatureGraph:
    """A graph whose nodes carry feature vectors and (optionally) class labels.

    Nodes are identified by arbitrary hashable ids (the automation models use
    LiDS-graph URIs).  Edges are stored undirected; the normalized adjacency
    operator used by message passing includes self-loops.
    """

    def __init__(self, feature_dimensions: int):
        self.feature_dimensions = feature_dimensions
        self._node_index: Dict[object, int] = {}
        self._node_ids: List[object] = []
        self._features: List[np.ndarray] = []
        self._labels: Dict[int, int] = {}
        self._edges: List[Tuple[int, int]] = []

    # -------------------------------------------------------------- building
    def add_node(self, node_id, features: Sequence[float], label: Optional[int] = None) -> int:
        """Add a node; returns its integer index.  Re-adding updates features."""
        features = np.asarray(features, dtype=float).ravel()
        if features.shape[0] != self.feature_dimensions:
            raise ValueError(
                f"expected {self.feature_dimensions} features, got {features.shape[0]}"
            )
        if node_id in self._node_index:
            index = self._node_index[node_id]
            self._features[index] = features
        else:
            index = len(self._node_ids)
            self._node_index[node_id] = index
            self._node_ids.append(node_id)
            self._features.append(features)
        if label is not None:
            self._labels[index] = int(label)
        return index

    def add_edge(self, source_id, target_id) -> None:
        """Add an undirected edge between two existing nodes."""
        if source_id not in self._node_index or target_id not in self._node_index:
            raise KeyError("both endpoints must be added before the edge")
        self._edges.append((self._node_index[source_id], self._node_index[target_id]))

    # ---------------------------------------------------------------- access
    @property
    def num_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def node_ids(self) -> List[object]:
        return list(self._node_ids)

    def features_matrix(self) -> np.ndarray:
        """Node features stacked as an ``(n_nodes, n_features)`` matrix."""
        if not self._features:
            return np.zeros((0, self.feature_dimensions))
        return np.vstack(self._features)

    def labels_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(labeled node indices, labels)`` as arrays."""
        if not self._labels:
            return np.array([], dtype=int), np.array([], dtype=int)
        indices = np.array(sorted(self._labels.keys()), dtype=int)
        labels = np.array([self._labels[i] for i in indices], dtype=int)
        return indices, labels

    def normalized_adjacency(self) -> np.ndarray:
        """Row-normalized adjacency matrix with self-loops (mean aggregation)."""
        n = self.num_nodes
        adjacency = np.eye(n)
        for source, target in self._edges:
            adjacency[source, target] = 1.0
            adjacency[target, source] = 1.0
        row_sums = adjacency.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0.0] = 1.0
        return adjacency / row_sums

    def neighbors(self, node_id) -> List[object]:
        """Node ids adjacent to ``node_id``."""
        index = self._node_index[node_id]
        out = set()
        for source, target in self._edges:
            if source == index:
                out.add(target)
            elif target == index:
                out.add(source)
        return [self._node_ids[i] for i in sorted(out)]

    def subgraph(self, node_indices: Iterable[int]) -> "FeatureGraph":
        """Induced subgraph over the given node indices (labels preserved)."""
        selected = sorted(set(int(i) for i in node_indices))
        graph = FeatureGraph(self.feature_dimensions)
        for index in selected:
            graph.add_node(
                self._node_ids[index],
                self._features[index],
                label=self._labels.get(index),
            )
        member = set(selected)
        for source, target in self._edges:
            if source in member and target in member:
                graph.add_edge(self._node_ids[source], self._node_ids[target])
        return graph
