"""Vector indexes for similarity search (the Faiss / HNSW substitutes).

Two indexes are provided: a brute-force :class:`FlatIndex` with exact cosine
top-k (Faiss ``IndexFlat`` analogue, behind ``EmbeddingStore.search``) and an
:class:`HNSWIndex` approximating Hierarchical Navigable Small World graphs
with a navigable k-NN graph plus greedy beam search (used only by the Starmie
baseline, which the paper notes relies on an HNSW index).  KG construction
uses neither: the schema builder scores every column pair exactly.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def _normalize(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=float).ravel()
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 0 else vector


class FlatIndex:
    """Exact cosine-similarity search over stored vectors."""

    def __init__(self, dimensions: int):
        self.dimensions = dimensions
        self._keys: List[str] = []
        self._vectors: List[np.ndarray] = []
        self._positions: Dict[str, int] = {}
        self._matrix: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._positions

    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert or replace the vector under ``key`` (L2-normalized on insert).

        Re-adding an existing key overwrites its row in place — O(1) instead
        of an index rebuild — so profile refreshes stay cheap.
        """
        vector = _normalize(vector)
        if vector.shape[0] != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions}-dimensional vector, got {vector.shape[0]}"
            )
        position = self._positions.get(key)
        if position is not None:
            self._vectors[position] = vector
            if self._matrix is not None:
                self._matrix[position] = vector
            return
        self._positions[key] = len(self._keys)
        self._keys.append(key)
        self._vectors.append(vector)
        self._matrix = None

    def add_many(self, items: Sequence[Tuple[str, np.ndarray]]) -> None:
        """Insert or replace a batch of ``(key, vector)`` pairs.

        Equivalent to repeated :meth:`add` but normalizes the whole batch in
        one vectorized pass and touches the cached matrix at most once,
        instead of per row.
        """
        if not items:
            return
        stacked = np.stack([np.asarray(vector, dtype=float).ravel() for _, vector in items])
        if stacked.shape[1] != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions}-dimensional vectors, got {stacked.shape[1]}"
            )
        norms = np.linalg.norm(stacked, axis=1)
        stacked = stacked / np.where(norms > 0, norms, 1.0)[:, None]
        appended = False
        for row, (key, _) in zip(stacked, items):
            position = self._positions.get(key)
            if position is not None:
                self._vectors[position] = row
                if self._matrix is not None and not appended:
                    self._matrix[position] = row
                continue
            self._positions[key] = len(self._keys)
            self._keys.append(key)
            self._vectors.append(row)
            appended = True
        if appended:
            self._matrix = None

    def _ensure_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = (
                np.vstack(self._vectors) if self._vectors else np.zeros((0, self.dimensions))
            )
        return self._matrix

    def remove(self, key: str) -> bool:
        """Delete a key's vector in O(1) by swapping the last row into its slot.

        This is the retraction primitive behind ``EmbeddingStore.remove`` —
        refreshing a table whose columns changed must drop the stale vectors,
        not just overwrite the surviving ones.
        """
        position = self._positions.pop(key, None)
        if position is None:
            return False
        last = len(self._keys) - 1
        if position != last:
            self._keys[position] = self._keys[last]
            self._vectors[position] = self._vectors[last]
            self._positions[self._keys[position]] = position
            if self._matrix is not None:
                self._matrix[position] = self._vectors[position]
        self._keys.pop()
        self._vectors.pop()
        if self._matrix is not None:
            self._matrix = self._matrix[: len(self._keys)]
        return True

    def search(self, query: np.ndarray, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k ``(key, cosine similarity)`` pairs for the query vector."""
        if not self._keys:
            return []
        matrix = self._ensure_matrix()
        query = _normalize(query)
        scores = matrix @ query
        k = min(k, len(self._keys))
        top = np.argpartition(-scores, k - 1)[:k]
        top = top[np.argsort(-scores[top])]
        return [(self._keys[i], float(scores[i])) for i in top]

    def keys(self) -> List[str]:
        return list(self._keys)


class HNSWIndex:
    """Approximate nearest-neighbour search over a navigable small-world graph.

    Construction links each inserted vector to the ``m`` best candidates
    found by a beam search over the *existing* neighbour graph (width
    ``ef_construction``), so an insert probes ~``ef_construction * m``
    vectors instead of scanning all ``n`` stored ones — the seed
    implementation's O(n^2) build becomes near-linear.  Queries run the same
    best-first beam (width ``ef_search``) from a fixed entry point.  This
    reproduces the behaviour that matters for the evaluation: sub-linear
    probing with approximate results.
    """

    def __init__(
        self,
        dimensions: int,
        m: int = 8,
        ef_search: int = 32,
        ef_construction: Optional[int] = None,
    ):
        self.dimensions = dimensions
        self.m = m
        self.ef_search = ef_search
        #: Beam width used to locate link candidates during insertion; wider
        #: beams buy graph quality (recall) for build time.
        self.ef_construction = ef_construction if ef_construction is not None else max(32, 4 * m)
        self._keys: List[str] = []
        self._vectors: List[np.ndarray] = []
        self._neighbors: List[List[int]] = []

    def __len__(self) -> int:
        return len(self._keys)

    def add(self, key: str, vector: np.ndarray) -> None:
        """Insert a vector, wiring it into the neighbour graph.

        Link candidates come from a beam search over the current graph, not
        from scoring every stored vector; back-links keep node degree at most
        ``2 m`` by evicting the weakest neighbour when the new node is
        closer.
        """
        vector = _normalize(vector)
        if vector.shape[0] != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions}-dimensional vector, got {vector.shape[0]}"
            )
        index = len(self._keys)
        self._keys.append(key)
        self._vectors.append(vector)
        self._neighbors.append([])
        if index == 0:
            return
        candidates = self._beam_search(vector, max(self.ef_construction, self.m))
        for score, neighbor in candidates[: self.m]:
            self._neighbors[index].append(neighbor)
            backlinks = self._neighbors[neighbor]
            if len(backlinks) < self.m * 2:
                backlinks.append(index)
                continue
            # Degree cap reached: keep the new link only if it beats the
            # neighbour's current weakest edge (one stacked matvec, not a
            # Python-level dot per backlink).
            neighbor_vector = self._vectors[neighbor]
            backlink_scores = (
                np.stack([self._vectors[b] for b in backlinks]) @ neighbor_vector
            )
            weakest_position = int(np.argmin(backlink_scores))
            if score > float(backlink_scores[weakest_position]):
                backlinks[weakest_position] = index

    def _beam_search(self, query: np.ndarray, ef: int) -> List[Tuple[float, int]]:
        """Best-first beam of width ``ef``: ``(score, node)`` sorted best-first."""
        entry = 0
        visited = {entry}
        entry_score = float(np.dot(self._vectors[entry], query))
        # Max-heap via negative scores.
        candidates: List[Tuple[float, int]] = [(-entry_score, entry)]
        best: List[Tuple[float, int]] = [(entry_score, entry)]
        while candidates:
            negative_score, node = heapq.heappop(candidates)
            if -negative_score < min(score for score, _ in best) and len(best) >= ef:
                break
            for neighbor in self._neighbors[node]:
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                score = float(np.dot(self._vectors[neighbor], query))
                heapq.heappush(candidates, (-score, neighbor))
                best.append((score, neighbor))
                best.sort(reverse=True)
                if len(best) > ef:
                    best.pop()
        best.sort(reverse=True)
        return best

    def search(self, query: np.ndarray, k: int = 10) -> List[Tuple[str, float]]:
        """Approximate top-k ``(key, cosine similarity)`` via greedy beam search."""
        if not self._keys:
            return []
        query = _normalize(query)
        best = self._beam_search(query, self.ef_search)
        return [(self._keys[i], score) for score, i in best[:k]]

    def keys(self) -> List[str]:
        return list(self._keys)
