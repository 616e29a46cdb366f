"""The per-graph triple index shared by every :class:`QuadStore` backend.

One :class:`GraphIndex` holds the triples of a single named graph together
with the access structures the SPARQL planner relies on: positional hash
indices, per-predicate cardinality statistics and the partial RDF-star
quoted-triple indexes.  Backends differ only in *where the quads live
durably* (process RAM vs a sqlite shard); the in-memory index — and therefore
``match`` / ``estimate`` semantics and the resulting query plans — is
identical across backends.

Since the dictionary-encoding refactor the index stores **id-triples**:
``(subject_id, predicate_id, object_id)`` tuples of small integers assigned
by the backend's shared :class:`~repro.rdf.terms.TermDictionary`.  All index
dictionaries, candidate sets and cardinality statistics are keyed by ids, so
matching compares machine ints instead of hashing term objects, and each
term's text lives in one place no matter how many triples reference it.
:class:`~repro.rdf.store.QuadStore` translates between terms and ids at its
public API boundary.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from repro.rdf.terms import TermDictionary

#: An id-encoded triple: ``(subject_id, predicate_id, object_id)``.
IdTriple = Tuple[int, int, int]

#: Shared empty candidate set so missing index entries cost no allocation.
_EMPTY_TRIPLES: Set[IdTriple] = frozenset()  # type: ignore[assignment]

#: "Not built yet" in a snapshot's derived-view table (``None`` is a value).
_UNBUILT = object()


class TripleColumns:
    """A graph's id-triples as parallel int64 arrays — the vectorized scan feed.

    Snapshots the triple set into subject / predicate / object columns so the
    SPARQL engine's scan-mode joins select candidates with numpy masks instead
    of per-triple Python comparisons.  Row order is exactly the triple set's
    iteration order at snapshot time, and per-predicate row blocks
    (:meth:`predicate_rows`) preserve the predicate bucket's own iteration
    order — so executors fed from arrays see candidates in the same order as
    executors iterating the sets, keeping row-order-sensitive results (e.g.
    GROUP BY representatives) byte-identical across paths.

    Every piece is built on first touch: planner paths that only need one
    predicate's bucket (the common shape) never pay the full-graph
    ``fromiter``.  That matters under replication, where every applied
    commit bumps the graph version and discards the snapshot — an eager
    full-matrix rebuild per commit would scale with total graph size
    instead of with what the next query actually scans.
    """

    __slots__ = ("_index", "_version", "_count", "_matrix", "_derived")

    def __init__(self, index: "GraphIndex"):
        self._index = index
        self._version = index.version
        self._count = len(index.triples)
        #: Lazily-built ``(count, 3)`` id matrix backing the full columns.
        self._matrix: Optional[np.ndarray] = None
        #: Views derived from this snapshot, each built on first use: the
        #: per-predicate row blocks (int keys) and whatever readers hang here
        #: through :meth:`derived`.
        self._derived: Dict[Any, Any] = {}

    def _columns(self) -> np.ndarray:
        matrix = self._matrix
        if matrix is None:
            index = self._index
            if index.version != self._version:
                # Readers obtain snapshots under the store's read gate and
                # the graph only mutates under the write gate, so a version
                # skew here means a caller cached this snapshot across
                # commits — fail loudly rather than mix two states.
                raise RuntimeError("TripleColumns snapshot outlived its graph version")
            count = self._count
            flat = np.fromiter(
                (part for triple in index.triples for part in triple),
                np.int64,
                3 * count,
            )
            matrix = self._matrix = flat.reshape(count, 3)
        return matrix

    @property
    def subjects(self) -> np.ndarray:
        return self._columns()[:, 0]

    @property
    def predicates(self) -> np.ndarray:
        return self._columns()[:, 1]

    @property
    def objects(self) -> np.ndarray:
        return self._columns()[:, 2]

    def __len__(self) -> int:
        return self._count

    def derived(self, key: str, build: Callable[["TripleColumns", "GraphIndex"], Any]) -> Any:
        """The view ``build(columns, index)``, built once per snapshot.

        ``key`` names the view (a dotted string, the owning module first).
        The graph discards its snapshot on every mutation
        (:meth:`GraphIndex.columnar`), so a view lives exactly as long as the
        state it was built from: nothing to invalidate, size or reset.  Two
        readers racing on first use both build; the views are equal.
        """
        view = self._derived.get(key, _UNBUILT)
        if view is _UNBUILT:
            view = self._derived[key] = build(self, self._index)
        return view

    def predicate_rows(self, predicate_id: int, index: "GraphIndex") -> Tuple[np.ndarray, np.ndarray]:
        """``(subjects, objects)`` of the predicate's triples, bucket-ordered."""
        cached = self._derived.get(predicate_id)
        if cached is None:
            bucket = index.by_predicate.get(predicate_id, _EMPTY_TRIPLES)
            count = len(bucket)
            flat = np.fromiter(
                (triple[position] for triple in bucket for position in (0, 2)),
                np.int64,
                2 * count,
            )
            pair = flat.reshape(count, 2)
            cached = self._derived[predicate_id] = (pair[:, 0], pair[:, 1])
        return cached

    def match_rows(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> np.ndarray:
        """Row positions matching the pattern (``None`` is a wildcard)."""
        mask: Optional[np.ndarray] = None
        for value, column in (
            (subject, self.subjects),
            (predicate, self.predicates),
            (obj, self.objects),
        ):
            if value is None:
                continue
            hits = column == value
            mask = hits if mask is None else mask & hits
        if mask is None:
            return np.arange(self._count)
        return np.nonzero(mask)[0]


class PredicateStats:
    """Incremental cardinality statistics for one predicate in one graph.

    Tracks the triple count plus distinct subject/object counts (via
    refcounting multisets over term ids), giving the SPARQL planner real
    join-size estimates: the expected number of matches of ``(?s p ?o)`` for
    a specific but yet-unknown subject is ``count / distinct_subjects`` (the
    average subject fan-out).
    """

    __slots__ = ("count", "subjects", "objects")

    def __init__(self):
        self.count = 0
        self.subjects: Dict[int, int] = {}
        self.objects: Dict[int, int] = {}

    def add(self, subject_id: int, object_id: int) -> None:
        self.count += 1
        self.subjects[subject_id] = self.subjects.get(subject_id, 0) + 1
        self.objects[object_id] = self.objects.get(object_id, 0) + 1

    def remove(self, subject_id: int, object_id: int) -> None:
        self.count -= 1
        for counter, term_id in ((self.subjects, subject_id), (self.objects, object_id)):
            remaining = counter.get(term_id, 0) - 1
            if remaining > 0:
                counter[term_id] = remaining
            else:
                counter.pop(term_id, None)

    @property
    def distinct_subjects(self) -> int:
        return len(self.subjects)

    @property
    def distinct_objects(self) -> int:
        return len(self.objects)

    def to_dict(self) -> Dict[str, int]:
        return {
            "count": self.count,
            "distinct_subjects": self.distinct_subjects,
            "distinct_objects": self.distinct_objects,
        }


class GraphIndex:
    """Per-graph id-triple set with subject/predicate/object hash indices.

    Beyond the three positional indices, the graph maintains per-predicate
    cardinality statistics (updated incrementally on add/remove) and partial
    RDF-star indices over annotation triples: triples whose subject is a
    quoted triple are additionally keyed by the quoted triple's *inner*
    subject and inner object ids, so ``<< ?c1 p ?c2 >>`` patterns with one
    bound side hit a hash entry instead of scanning all annotations.  The
    shared :class:`TermDictionary` supplies the quoted-part structure.
    """

    __slots__ = (
        "dictionary",
        "triples",
        "by_subject",
        "by_predicate",
        "by_object",
        "by_quoted_subject",
        "by_quoted_object",
        "predicate_stats",
        "version",
        "_columnar",
    )

    def __init__(self, dictionary: TermDictionary):
        self.dictionary = dictionary
        self.triples: Set[IdTriple] = set()
        self.by_subject: Dict[int, Set[IdTriple]] = defaultdict(set)
        self.by_predicate: Dict[int, Set[IdTriple]] = defaultdict(set)
        self.by_object: Dict[int, Set[IdTriple]] = defaultdict(set)
        #: Annotation triples keyed by their quoted subject's inner term ids.
        self.by_quoted_subject: Dict[int, Set[IdTriple]] = defaultdict(set)
        self.by_quoted_object: Dict[int, Set[IdTriple]] = defaultdict(set)
        #: Per-predicate cardinality statistics.
        self.predicate_stats: Dict[int, PredicateStats] = {}
        #: Per-graph mutation counter (bumps on every insert/remove).
        self.version = 0
        #: ``(version, TripleColumns)`` snapshot cache for vectorized scans.
        self._columnar: Optional[Tuple[int, TripleColumns]] = None

    def add(self, triple: IdTriple) -> bool:
        return bool(self.add_many((triple,)))

    def add_many(self, rows: "Iterable[IdTriple]") -> "list[IdTriple]":
        """Bulk insert; returns the genuinely-new triples, in order.

        The path of every writer: ``QuadStore.add_many`` feeds a table's few
        hundred quads through here, a shard load its whole table, the
        replication apply path six-digit row batches.  Per-row method
        dispatch and attribute traffic are a third of the cost of inserting
        one triple at a time — this loop binds everything once and bumps the
        graph version once per batch instead of per row (any snapshot
        invalidation cares only that the version *moved*).
        """
        triples = self.triples
        by_subject = self.by_subject
        by_predicate = self.by_predicate
        by_object = self.by_object
        by_quoted_subject = self.by_quoted_subject
        by_quoted_object = self.by_quoted_object
        predicate_stats = self.predicate_stats
        quoted_parts = self.dictionary.quoted_parts
        added = []
        for triple in rows:
            if triple in triples:
                continue
            subject_id, predicate_id, object_id = triple
            triples.add(triple)
            by_subject[subject_id].add(triple)
            by_predicate[predicate_id].add(triple)
            by_object[object_id].add(triple)
            quoted = quoted_parts(subject_id)
            if quoted is not None:
                by_quoted_subject[quoted[0]].add(triple)
                by_quoted_object[quoted[2]].add(triple)
            stats = predicate_stats.get(predicate_id)
            if stats is None:
                stats = predicate_stats[predicate_id] = PredicateStats()
            stats.add(subject_id, object_id)
            added.append(triple)
        if added:
            self.version += 1
        return added

    def remove(self, triple: IdTriple) -> bool:
        return bool(self.remove_many((triple,)))

    def remove_many(self, rows: "Iterable[IdTriple]") -> "list[IdTriple]":
        """Bulk removal; returns the triples that were present, in order.

        A bucket that empties is deleted with its key, so the index's size
        follows the graph and not the work done on it.  The graph version
        bumps once per batch (see :meth:`add_many`).
        """
        triples = self.triples
        by_subject = self.by_subject
        by_predicate = self.by_predicate
        by_object = self.by_object
        quoted_parts = self.dictionary.quoted_parts
        predicate_stats = self.predicate_stats
        removed = []
        for triple in rows:
            if triple not in triples:
                continue
            subject_id, predicate_id, object_id = triple
            triples.discard(triple)
            bucket = by_subject[subject_id]
            bucket.discard(triple)
            if not bucket:
                del by_subject[subject_id]
            bucket = by_predicate[predicate_id]
            bucket.discard(triple)
            if not bucket:
                del by_predicate[predicate_id]
            bucket = by_object[object_id]
            bucket.discard(triple)
            if not bucket:
                del by_object[object_id]
            quoted = quoted_parts(subject_id)
            if quoted is not None:
                for by_part, part_id in (
                    (self.by_quoted_subject, quoted[0]),
                    (self.by_quoted_object, quoted[2]),
                ):
                    bucket = by_part[part_id]
                    bucket.discard(triple)
                    if not bucket:
                        del by_part[part_id]
            stats = predicate_stats[predicate_id]
            stats.remove(subject_id, object_id)
            if stats.count <= 0:
                del predicate_stats[predicate_id]
            removed.append(triple)
        if removed:
            self.version += 1
        return removed

    def match(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[IdTriple]:
        """Iterate id-triples matching the pattern (``None`` is a wildcard).

        Scans the smallest index among the bound ids and filters the rest
        with direct slot comparisons, avoiding set-intersection allocations.
        The candidate set is snapshotted so callers may mutate the index
        while iterating (e.g. retraction loops).
        """
        candidates: Optional[Set[IdTriple]] = None
        if subject is not None:
            candidates = self.by_subject.get(subject, _EMPTY_TRIPLES)
        if predicate is not None:
            by_predicate = self.by_predicate.get(predicate, _EMPTY_TRIPLES)
            if candidates is None or len(by_predicate) < len(candidates):
                candidates = by_predicate
        if obj is not None:
            by_object = self.by_object.get(obj, _EMPTY_TRIPLES)
            if candidates is None or len(by_object) < len(candidates):
                candidates = by_object
        for triple in tuple(self.triples if candidates is None else candidates):
            if subject is not None and triple[0] != subject:
                continue
            if predicate is not None and triple[1] != predicate:
                continue
            if obj is not None and triple[2] != obj:
                continue
            yield triple

    def columnar(self) -> TripleColumns:
        """The graph's triples as numpy id columns, cached per version.

        The snapshot is invalidated by any mutation (the per-graph
        ``version`` counter bumps on every add/remove), so readers always
        see columns consistent with the sets — and repeated scans within one
        query, or across queries over a quiescent graph, pay the conversion
        once.
        """
        cached = self._columnar
        if cached is not None and cached[0] == self.version:
            return cached[1]
        columns = TripleColumns(self)
        self._columnar = (self.version, columns)
        return columns

    def match_id_arrays(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Id-array :meth:`match`: matching triples as three parallel arrays.

        The vectorized executor's scan feed — candidates arrive as int64
        columns ready for numpy key-hashing instead of per-triple tuples.
        """
        columns = self.columnar()
        rows = columns.match_rows(subject, predicate, obj)
        return (
            columns.subjects[rows],
            columns.predicates[rows],
            columns.objects[rows],
        )

    def estimate(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """Upper bound on the number of matches, from index sizes alone (O(1))."""
        estimate = len(self.triples)
        if subject is not None:
            estimate = min(estimate, len(self.by_subject.get(subject, _EMPTY_TRIPLES)))
        if predicate is not None:
            estimate = min(estimate, len(self.by_predicate.get(predicate, _EMPTY_TRIPLES)))
        if obj is not None:
            estimate = min(estimate, len(self.by_object.get(obj, _EMPTY_TRIPLES)))
        return estimate

    def _quoted_candidates(
        self,
        inner_subject: Optional[int],
        inner_object: Optional[int],
        predicate: Optional[int],
        obj: Optional[int],
    ) -> Set[IdTriple]:
        """Smallest candidate set for a partially-bound quoted-subject pattern."""
        candidates: Optional[Set[IdTriple]] = None
        if inner_subject is not None:
            candidates = self.by_quoted_subject.get(inner_subject, _EMPTY_TRIPLES)
        if inner_object is not None:
            by_inner_object = self.by_quoted_object.get(inner_object, _EMPTY_TRIPLES)
            if candidates is None or len(by_inner_object) < len(candidates):
                candidates = by_inner_object
        if predicate is not None:
            by_predicate = self.by_predicate.get(predicate, _EMPTY_TRIPLES)
            if candidates is None or len(by_predicate) < len(candidates):
                candidates = by_predicate
        if obj is not None:
            by_object = self.by_object.get(obj, _EMPTY_TRIPLES)
            if candidates is None or len(by_object) < len(candidates):
                candidates = by_object
        return self.triples if candidates is None else candidates

    def match_quoted(
        self,
        inner_subject: Optional[int] = None,
        inner_predicate: Optional[int] = None,
        inner_object: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> Iterator[IdTriple]:
        """Triples whose subject is a quoted triple matching the inner pattern.

        ``inner_*`` constrain the quoted triple's own term ids (``None`` is a
        wildcard); ``predicate``/``obj`` constrain the outer annotation
        triple.  Scans the smallest applicable index — for one-side-bound
        patterns like ``<< ?c1 p ?c2 >>`` with ``?c1`` known this is the
        partial quoted-subject hash entry, not the full annotation set.
        """
        quoted_parts = self.dictionary.quoted_parts
        candidates = self._quoted_candidates(inner_subject, inner_object, predicate, obj)
        for triple in tuple(candidates):
            quoted = quoted_parts(triple[0])
            if quoted is None:
                continue
            if inner_subject is not None and quoted[0] != inner_subject:
                continue
            if inner_predicate is not None and quoted[1] != inner_predicate:
                continue
            if inner_object is not None and quoted[2] != inner_object:
                continue
            if predicate is not None and triple[1] != predicate:
                continue
            if obj is not None and triple[2] != obj:
                continue
            yield triple

    def estimate_quoted(
        self,
        inner_subject: Optional[int] = None,
        inner_object: Optional[int] = None,
        predicate: Optional[int] = None,
        obj: Optional[int] = None,
    ) -> int:
        """Upper bound on :meth:`match_quoted` results from index sizes (O(1))."""
        return len(self._quoted_candidates(inner_subject, inner_object, predicate, obj))
