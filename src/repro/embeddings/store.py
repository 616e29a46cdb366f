"""The embedding store: maps LiDS-graph node URIs to vectors with ANN search."""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.embeddings.index import FlatIndex

PathLike = Union[str, Path]


class EmbeddingStore:
    """Stores embeddings of columns, tables and datasets keyed by node URI.

    This is the Faiss-backed component of KGLiDS Storage: the profiler writes
    CoLR embeddings into it and the interfaces query it for nearest-neighbour
    lookups (e.g. finding the LiDS table most similar to a user DataFrame).
    Separate namespaces keep column, table and dataset vectors (of different
    dimensionality) apart.
    """

    def __init__(self):
        self._vectors: Dict[str, Dict[str, np.ndarray]] = {}
        self._indexes: Dict[str, FlatIndex] = {}
        #: The graph store's readers-writer gate, when governed (see
        #: :meth:`attach_gate`); ``None`` leaves the store unsynchronized.
        self._gate = None
        #: Monotonic mutation counter (recommenders key caches on this).
        self._version = 0
        #: Open batch's undo log: ``(namespace, key, previous_vector|None)``.
        self._undo: Optional[List[Tuple[str, str, Optional[np.ndarray]]]] = None
        self._version_mark = 0

    # ------------------------------------------------------- gate / versioning
    def attach_gate(self, gate) -> None:
        """Share the graph store's :class:`ReadWriteGate`.

        Once attached, every mutation takes the write side and every lookup
        the read side — so an embedding batch applied inside the governor's
        ``write_batch`` (whose thread already holds the gate; acquisition is
        reentrant) is invisible to recommender threads until the whole batch
        commits, exactly like the quads it describes.
        """
        self._gate = gate

    @property
    def version(self) -> int:
        """Bumps on every mutation; rolled back with an aborted batch."""
        return self._version

    @contextmanager
    def _write_scope(self):
        gate = self._gate
        if gate is None:
            yield
            return
        gate.acquire_write()
        try:
            yield
        finally:
            gate.release_write()

    @contextmanager
    def _read_scope(self):
        gate = self._gate
        if gate is None:
            yield
            return
        gate.acquire_read()
        try:
            yield
        finally:
            gate.release_read()

    # ------------------------------------------------------------ transactions
    @property
    def in_batch(self) -> bool:
        """Whether an undo-recording batch is currently open."""
        return self._undo is not None

    def begin_batch(self) -> None:
        """Start recording undo entries (caller holds the write gate)."""
        self._undo = []
        self._version_mark = self._version

    def commit_batch(self) -> None:
        self._undo = None

    def rollback_batch(self) -> None:
        """Restore every key the aborted batch touched to its prior vector."""
        undo, self._undo = self._undo, None
        if undo is None:
            return
        for namespace, key, previous in reversed(undo):
            if previous is None:
                self._delete(namespace, key)
            else:
                self._insert(namespace, key, previous)
        self._version = self._version_mark

    def _record(self, namespace: str, key: str) -> None:
        if self._undo is not None:
            previous = self._vectors.get(namespace, {}).get(key)
            self._undo.append((namespace, key, previous))

    # ------------------------------------------------------------------- API
    def put(self, namespace: str, key: str, vector: np.ndarray) -> None:
        """Store a vector for ``key`` in ``namespace`` (e.g. ``"column"``).

        Overwrites are O(1) amortized: the flat index replaces the key's row
        in place instead of being rebuilt.
        """
        vector = np.asarray(vector, dtype=float).ravel()
        with self._write_scope():
            self._record(namespace, key)
            self._insert(namespace, key, vector)

    def put_many(
        self, namespace: str, items: Sequence[Tuple[str, np.ndarray]]
    ) -> None:
        """Store a batch of ``(key, vector)`` pairs in one namespace.

        The flat index ingests the whole batch at once (one normalization
        pass, one matrix invalidation) instead of being re-touched per row —
        this is the bulk-ingestion path the governor uses when registering a
        freshly profiled lake.
        """
        if not items:
            return
        items = [(key, np.asarray(vector, dtype=float).ravel()) for key, vector in items]
        with self._write_scope():
            bucket = self._vectors.setdefault(namespace, {})
            for key, vector in items:
                self._record(namespace, key)
                bucket[key] = vector
            if namespace not in self._indexes:
                self._indexes[namespace] = FlatIndex(items[0][1].shape[0])
            self._indexes[namespace].add_many(items)
            self._version += 1

    def remove(self, namespace: str, key: str) -> bool:
        """Delete a stored vector and its index row (``False`` if absent).

        The retraction primitive used by table refresh: stale column / table
        vectors must leave the ANN index, not merely be overwritten.
        """
        with self._write_scope():
            bucket = self._vectors.get(namespace)
            if bucket is None or key not in bucket:
                return False
            self._record(namespace, key)
            self._delete(namespace, key)
            return True

    # -------------------------------------------------- unrecorded primitives
    def _insert(self, namespace: str, key: str, vector: np.ndarray) -> None:
        bucket = self._vectors.setdefault(namespace, {})
        bucket[key] = vector
        if namespace not in self._indexes:
            self._indexes[namespace] = FlatIndex(vector.shape[0])
        self._indexes[namespace].add(key, vector)
        self._version += 1

    def _delete(self, namespace: str, key: str) -> None:
        bucket = self._vectors.get(namespace)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                # Prune emptied namespaces so a rolled-back batch leaves no
                # trace (an empty bucket is indistinguishable from an absent
                # one for every read, but not for state comparisons).
                del self._vectors[namespace]
                self._indexes.pop(namespace, None)
                self._version += 1
                return
        index = self._indexes.get(namespace)
        if index is not None:
            index.remove(key)
        self._version += 1

    def get(self, namespace: str, key: str) -> Optional[np.ndarray]:
        """Fetch a stored vector (``None`` if absent)."""
        with self._read_scope():
            return self._vectors.get(namespace, {}).get(key)

    def keys(self, namespace: str) -> List[str]:
        """All keys stored in a namespace."""
        with self._read_scope():
            return list(self._vectors.get(namespace, {}).keys())

    def search(
        self, namespace: str, query: np.ndarray, k: int = 10
    ) -> List[Tuple[str, float]]:
        """Top-k most similar stored vectors to the query (cosine)."""
        with self._read_scope():
            index = self._indexes.get(namespace)
            if index is None:
                return []
            return index.search(query, k=k)

    def count(self, namespace: Optional[str] = None) -> int:
        """Number of stored vectors, optionally per namespace."""
        if namespace is not None:
            return len(self._vectors.get(namespace, {}))
        return sum(len(bucket) for bucket in self._vectors.values())

    def estimated_size_bytes(self) -> int:
        """Rough memory footprint of all stored vectors."""
        return sum(
            vector.size * 8
            for bucket in self._vectors.values()
            for vector in bucket.values()
        )

    # ------------------------------------------------------------ persistence
    def save(self, path: PathLike, extra: Optional[Dict[str, np.ndarray]] = None) -> Path:
        """Write the store to one ``.npz`` file (per-namespace matrices).

        Keys go into a JSON manifest embedded in the archive (npz member
        names cannot carry arbitrary URI characters); vectors are stacked
        into one matrix per namespace.  :meth:`load` is the exact inverse —
        vectors round-trip at full float precision and the ANN indexes are
        rebuilt on load.  ``extra`` arrays ride along as members of their
        own, which :meth:`load` ignores.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = dict(extra or {})
        manifest: List[Dict[str, object]] = []
        for position, namespace in enumerate(sorted(self._vectors)):
            bucket = self._vectors[namespace]
            keys = list(bucket.keys())
            manifest.append({"namespace": namespace, "keys": keys})
            if keys:
                arrays[f"vectors_{position}"] = np.stack([bucket[key] for key in keys])
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        with path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "EmbeddingStore":
        """Rebuild a store (vectors + ANN indexes) from a :meth:`save` file."""
        store = cls()
        with np.load(Path(path)) as data:
            manifest = json.loads(data["manifest"].tobytes().decode("utf-8"))
            for position, entry in enumerate(manifest):
                name = f"vectors_{position}"
                if name not in data:
                    continue
                matrix = data[name]
                store.put_many(
                    str(entry["namespace"]),
                    list(zip(entry["keys"], matrix)),
                )
        return store
