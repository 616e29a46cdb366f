"""The quad store: named graphs, triple-pattern matching, RDF-star annotations.

Storage is pluggable: a :class:`QuadStore` delegates graph management to a
:class:`~repro.rdf.backend.QuadStoreBackend` (in-memory by default,
sqlite-sharded via :meth:`QuadStore.sqlite`), while every matching /
estimation / statistics code path runs on the backend's shared
:class:`~repro.rdf.graph_index.GraphIndex` — so query semantics and SPARQL
plans do not depend on where the quads live durably.

Terms are dictionary-encoded: the backend's shared
:class:`~repro.rdf.terms.TermDictionary` interns every distinct term to one
integer id and the indexes store id-triples.  This class is the translation
boundary — the public API stays term-based (``add``/``match``/``triples``
accept and yield term objects exactly as before), while the SPARQL engine
reads the backend's id-level indexes and :attr:`dictionary` directly and only
decodes ids at FILTER evaluation and final projection.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.rdf.backend import PathLike, QuadStoreBackend, SqliteBackend
from repro.rdf.gate import ReadView, ReadWriteGate
from repro.rdf.graph_index import GraphIndex, IdTriple
from repro.rdf.terms import Literal, QuotedTriple, TermDictionary, Triple, URIRef, term_n3

#: Name of the default graph (triples added without an explicit graph).
DEFAULT_GRAPH = URIRef("http://kglids.org/resource/defaultGraph")

#: Sentinel distinguishing "term not interned" from the ``None`` wildcard.
_ABSENT = object()


class QuadStore:
    """An RDF-star store with named graphs and pluggable storage backends.

    This is the storage engine of the reproduction: the KG Governor writes the
    LiDS graph into it (one named graph per pipeline, plus the dataset,
    library and ontology graphs) and the SPARQL engine evaluates queries
    against it.  The default backend keeps everything in process RAM (the
    seed behaviour); :meth:`sqlite` opens a disk-backed store whose named
    graphs are sqlite shards, reloaded lazily on open.
    """

    def __init__(self, backend: Optional[QuadStoreBackend] = None):
        self._backend = backend or QuadStoreBackend()
        self._version = 0
        #: Readers-writer gate making writes batch-atomic w.r.t. read views.
        self._gate = ReadWriteGate()
        #: Monotonic count of committed write batches (standalone mutations
        #: count as single-op batches).  Read views pin this number.  Durable
        #: backends resume it from their committed marker so a reopened
        #: store's versions continue where the last durable commit ended.
        self._commit_version = self._backend.committed_version()
        #: The open batch's undo log (``None`` outside a batch).
        self._undo: Optional[List[Tuple[str, URIRef, Any]]] = None
        self._in_batch = False
        self._version_mark = 0
        self._rollback_callbacks: List[Any] = []
        self._commit_callbacks: List[Any] = []
        self._closed = False
        #: Row-level per-commit op log for delta replication: entries are
        #: ``(commit_version, [(kind, graph, payload), ...])``.  ``None``
        #: until :meth:`enable_delta_log` — only replication sources pay the
        #: recording cost.
        self._delta_log: Optional[Deque[Tuple[int, List[Tuple[str, URIRef, Any]]]]] = None
        #: Followers at a version >= the floor can be bridged from the log.
        self._delta_log_floor = 0
        self._delta_log_cap = 0
        #: Ops recorded for the commit currently being built (``None``
        #: outside a write span / when the log is disabled).
        self._pending_ops: Optional[List[Tuple[str, URIRef, Any]]] = None

    @classmethod
    def sqlite(cls, path: PathLike) -> "QuadStore":
        """Open (or create) a sqlite-backed store at ``path``.

        Graph indexes load lazily on first touch and stay resident.
        """
        return cls(backend=SqliteBackend(path))

    @property
    def backend(self) -> QuadStoreBackend:
        """The storage backend holding this store's graphs."""
        return self._backend

    @property
    def dictionary(self) -> TermDictionary:
        """The backend's shared term dictionary (term <-> integer id)."""
        return self._backend.dictionary

    @property
    def persistent(self) -> bool:
        """Whether this store's contents survive process restarts."""
        return self._backend.persistent

    def flush(self) -> None:
        """Make all buffered backend writes durable (no-op when in-memory)."""
        self._backend.note_commit_version(self._commit_version)
        self._backend.flush()

    # ------------------------------------------------- read views / write gate
    @property
    def commit_version(self) -> int:
        """Count of committed write batches (the read-view snapshot key).

        Unlike :attr:`version` (which bumps per triple), this only moves
        when a whole batch commits — so two reads under one
        :meth:`read_view` seeing the same ``commit_version`` are guaranteed
        to observe the same committed state.
        """
        return self._commit_version

    @contextmanager
    def read_view(self):
        """A consistent read scope: no write batch can commit while open.

        Yields a :class:`~repro.rdf.gate.ReadView` pinned to the current
        commit version.  Nested views (including views opened by the thread
        holding the write side) are cheap counter bumps.  The SPARQL engine
        opens one per evaluation; multi-query read operations (e.g. the
        discovery API's join-path walks) should hold one view across all
        their lookups to observe a single store state.
        """
        self._gate.acquire_read()
        try:
            yield ReadView(self, self._commit_version)
        finally:
            self._gate.release_read()

    def in_read_view(self) -> bool:
        """Whether the calling thread currently holds a read view."""
        return self._gate.read_depth() > 0

    @contextmanager
    def write_batch(self):
        """Group mutations into one atomic, durable commit batch.

        While the batch is open the calling thread holds the store
        exclusively: concurrent read views wait and then observe either none
        or all of the batch's writes.  On successful exit the backend commits
        (one durable, journaled transaction per batch on sqlite) and the
        commit version advances by one regardless of how many triples
        changed.  Batches nest — only the outermost one commits.  Starting a
        batch while holding only a read view raises instead of deadlocking.

        Atomicity includes rollback: every mutation records its inverse in
        an undo log, and if the batch *body* raises, the resident graph
        indexes, the term dictionary and the durable backend are all wound
        back to the pre-batch state before the gate releases — the commit
        version does not advance and readers (and version-keyed caches)
        never observe the aborted writes.  The exception then propagates for
        the caller to handle (the governor service fails the batch's tickets
        with it and retries transient errors).
        """
        depth = self._gate.acquire_write()
        if depth == 1:
            try:
                self._begin_batch()
            except BaseException:
                self._gate.release_write()
                raise
        try:
            yield self
        except BaseException:
            if depth == 1:
                try:
                    self._abort_batch()
                finally:
                    self._gate.release_write()
            else:
                self._gate.release_write()
            raise
        else:
            if depth == 1:
                try:
                    self._commit_batch()
                finally:
                    self._gate.release_write()
            else:
                self._gate.release_write()

    def _begin_batch(self) -> None:
        self._undo = []
        self._version_mark = self._version
        self._rollback_callbacks = []
        self._commit_callbacks = []
        if self._delta_log is not None:
            self._pending_ops = []
        self._backend.begin_batch()
        self._in_batch = True

    def _commit_batch(self) -> None:
        try:
            self._backend.commit_batch(self._commit_version + 1)
        except BaseException:
            # The commit itself failed (e.g. disk full, injected fault):
            # treat it exactly like a raising batch body.
            self._abort_batch()
            raise
        self._in_batch = False
        self._commit_version += 1
        self._log_commit(self._commit_version)
        callbacks = self._commit_callbacks
        self._undo = None
        self._rollback_callbacks = []
        self._commit_callbacks = []
        for callback in callbacks:
            callback()

    def _abort_batch(self) -> None:
        self._in_batch = False
        undo, self._undo = self._undo, None
        self._pending_ops = None
        # Replay inverses newest-first against *resident* indexes only: an
        # index invalidated (or never loaded) during the batch re-materializes
        # from durable storage, which the backend rollback below restores —
        # replaying into a fresh load would double-revert.  Index replay
        # must run before the backend rollback because removing a quoted
        # triple consults the dictionary's quoted-part maps, which the
        # backend rollback unwinds.
        for kind, graph, payload in reversed(undo):
            if kind == "drop":
                self._backend.restore_graph(graph, payload)
                continue
            index = self._backend.resident_index(graph)
            if index is None:
                continue
            if kind == "add":
                index.remove(payload)
            else:  # "remove"
                index.add(payload)
        self._version = self._version_mark
        self._backend.rollback_batch()
        callbacks = self._rollback_callbacks
        self._rollback_callbacks = []
        self._commit_callbacks = []
        for callback in reversed(callbacks):
            callback()

    def on_rollback(self, callback) -> None:
        """Run ``callback`` if the open batch rolls back (LIFO order).

        Companion stores (embeddings, governor profile registries) register
        their own inverse operations here so one raising batch body unwinds
        *all* state mutated under the batch, not just quads.  Raises when no
        batch is open — there is nothing to attach the callback to.
        """
        if not self._in_batch:
            raise RuntimeError("on_rollback requires an open write batch")
        self._rollback_callbacks.append(callback)

    def on_commit(self, callback) -> None:
        """Run ``callback`` after the open batch commits (FIFO order)."""
        if not self._in_batch:
            raise RuntimeError("on_commit requires an open write batch")
        self._commit_callbacks.append(callback)

    @property
    def in_write_batch(self) -> bool:
        """Whether a write batch is currently open (any thread)."""
        return self._in_batch

    @property
    def gate(self) -> ReadWriteGate:
        """The store's readers-writer gate (shared with companion stores)."""
        return self._gate

    @property
    def recovery(self) -> Dict[str, Any]:
        """What the backend verified/repaired on open (empty when volatile)."""
        return self._backend.recovery

    def _begin_write(self) -> int:
        """Gate one standalone mutation (reentrant under an open batch)."""
        depth = self._gate.acquire_write()
        if depth == 1 and self._delta_log is not None and not self._in_batch:
            self._pending_ops = []
        return depth

    def _end_write(self, depth: int) -> None:
        # A standalone op (no surrounding batch) is its own micro-commit:
        # bump the commit version, but skip the flush — buffered-backend
        # write batching must not degrade to one fsync per call.  The
        # backend notes the new version so the next durable commit stamps
        # its recovery marker with it.
        if depth == 1:
            self._commit_version += 1
            self._backend.note_commit_version(self._commit_version)
            if not self._in_batch:
                self._log_commit(self._commit_version)
        self._gate.release_write()

    # ------------------------------------------------------------- replication
    def enable_delta_log(self, capacity: int = 1024) -> None:
        """Start recording per-commit row ops for delta replication.

        Keeps the last ``capacity`` commits as ``(version, ops)`` entries so
        a follower pinned at any version at or above the log floor can be
        brought current by shipping ops instead of whole shards.  Only
        replication *sources* enable this; the recording cost is one list
        ``extend`` per row batch, with the row entries the undo log already
        holds.
        """
        if capacity < 1:
            raise ValueError("delta log capacity must be >= 1")
        with self.read_view():
            self._delta_log = deque()
            self._delta_log_floor = self._commit_version
            self._delta_log_cap = capacity

    def delta_log_since(
        self, version: int
    ) -> Optional[List[Tuple[int, List[Tuple[str, URIRef, Any]]]]]:
        """Per-commit ops for every commit after ``version``.

        Returns ``None`` when the log cannot bridge (disabled, truncated
        past ``version``, or reset by a replication jump or reopen) — the
        caller falls back to full changed-shard shipping.  Call under a
        :meth:`read_view` so the log cannot advance mid-read.
        """
        log = self._delta_log
        if log is None or version < self._delta_log_floor:
            return None
        return [entry for entry in log if entry[0] > version]

    def _log_commit(self, version: int) -> None:
        """Seal the pending ops as the log entry for ``version``."""
        ops, self._pending_ops = self._pending_ops, None
        log = self._delta_log
        if log is None:
            return
        log.append((version, ops or []))
        while len(log) > self._delta_log_cap:
            dropped_version, _ = log.popleft()
            self._delta_log_floor = dropped_version

    def _break_delta_log(self) -> None:
        """Reset the log after a non-loggable state change (jump, reopen)."""
        self._pending_ops = None
        if self._delta_log is not None:
            self._delta_log.clear()
            self._delta_log_floor = self._commit_version

    def graphs_changed_since(self, version: int) -> List[URIRef]:
        """Graphs that may hold changes committed after ``version``.

        Over-reporting is possible (the backend tracks change marks
        conservatively); under-reporting is not.  Dropped graphs are not
        listed — diff the graph catalog to observe drops.
        """
        return self._backend.changed_since(version)

    def graph_change_versions(self) -> Dict[URIRef, int]:
        """Upper bound on each graph's last-change commit version."""
        return self._backend.change_versions()

    @contextmanager
    def replication_batch(self, target_version: int, durable: bool = True):
        """An exclusive write scope that commits at an explicit version.

        The replica apply path: shipped state lands through backend-level
        primitives inside this scope, and on success the commit version
        *jumps* to the source's ``target_version`` (a follower replays the
        source's version line, it does not mint its own).  Readers behave
        exactly as under :meth:`write_batch` — they wait, then observe all
        of the shipped state or none of it.  On failure the backend
        transaction rolls back; the caller must invalidate any resident
        indexes it patched (there is no undo log here).

        ``durable=False`` (honoured only when the backend advertises
        ``supports_lazy_replication``) applies to the resident indexes and
        the write buffer but defers the sqlite flush, the meta stamp and
        the transaction entirely — the serving-replica hot path, where
        shipping durability work out of the request window is worth a
        weaker crash story.  The durable version stays *conservative*
        (whatever the last :meth:`checkpoint` wrote), which is safe because
        replication ops are idempotent: a restart re-pulls the delta since
        the stale durable version and replaying over already-flushed rows
        converges on the same state.  On failure the deferred ops and the
        terms interned by this apply are discarded instead of rolled back
        through sqlite.
        """
        lazy = not durable and self._backend.supports_lazy_replication
        depth = self._gate.acquire_write()
        try:
            if depth != 1:
                raise RuntimeError(
                    "replication_batch cannot nest inside writes or batches"
                )
            if target_version <= self._commit_version:
                raise ValueError(
                    f"replication target {target_version} is not ahead of "
                    f"commit version {self._commit_version}"
                )
            if lazy:
                pending_mark = self._backend.pending_mark()
            else:
                self._backend.begin_batch()
            self._in_batch = True
            try:
                yield self
            except BaseException:
                self._in_batch = False
                if lazy:
                    self._backend.discard_pending(pending_mark)
                else:
                    self._backend.rollback_batch()
                raise
            self._in_batch = False
            if not lazy:
                self._backend.commit_batch(target_version)
            self._commit_version = target_version
            self._version += 1
            self._break_delta_log()
        finally:
            self._gate.release_write()

    def checkpoint(self) -> None:
        """Flush deferred replication state and stamp the durable version.

        The companion to ``replication_batch(durable=False)``: everything
        applied lazily since the last checkpoint becomes durable in one
        sqlite transaction, meta version included.  A no-op when nothing is
        deferred; cheap enough to call from a replica's idle loop.
        """
        self._backend.note_commit_version(self._commit_version)
        self._backend.flush()

    def reopen(self, changed_graphs: Optional[Iterable[URIRef]] = None) -> Dict[str, Any]:
        """Re-read a durable backend replaced underneath this store in place.

        Cheap re-open: the backend keeps its interned term dictionary when
        the new file shares its lineage and drops only ``changed_graphs``'s
        resident indexes (``None`` = all).  Runs under the write gate so
        in-flight read views finish on the old state and the swap is atomic
        for the next reader.  Returns the backend's info dict.
        """
        depth = self._gate.acquire_write()
        try:
            if depth != 1:
                raise RuntimeError("reopen requires exclusive access, not a nested write")
            info = self._backend.reopen(changed_graphs=changed_graphs)
            self._commit_version = self._backend.committed_version()
            self._version += 1
            self._break_delta_log()
            return info
        finally:
            self._gate.release_write()

    def close(self) -> None:
        """Flush and release the backend; idempotent (double-close is a no-op)."""
        if self._closed:
            return
        self._backend.note_commit_version(self._commit_version)
        self._backend.close()
        self._closed = True

    @property
    def version(self) -> int:
        """Monotonic mutation counter: bumps on every successful write.

        Readers (e.g. the Global Graph Linker) key caches on this to detect
        *any* change, including remove-then-add sequences that leave the
        triple count unchanged.
        """
        return self._version

    def graph_version(self, graph: URIRef) -> int:
        """Mutation counter of one named graph (0 for an absent graph)."""
        index = self._backend.get_index(graph)
        return index.version if index is not None else 0

    def derived_view(self, graph: URIRef, key: str, build) -> Any:
        """``build(columns, index)`` over one graph, kept until that graph changes.

        The one home for per-graph derived state (the discovery API's join
        adjacency and keyword text, the linker's table map): the view hangs
        on the graph's :class:`~repro.rdf.graph_index.TripleColumns`
        snapshot, which any write to *this* graph discards and writes to
        other graphs leave alone.  Call it inside a read view (or the write
        batch doing the writing) like any other read; an absent graph builds
        from an empty index and keeps nothing.
        """
        index = self._backend.get_index(graph)
        if index is None:
            index = GraphIndex(self._backend.dictionary)
        return index.columnar().derived(key, build)

    # --------------------------------------------------------- id translation
    def _lookup_id(self, term: Any) -> Any:
        """The term's id, ``None`` for the wildcard, ``_ABSENT`` if unknown."""
        if term is None:
            return None
        term_id = self._backend.dictionary.lookup(term)
        return term_id if term_id is not None else _ABSENT

    def _decode_triple(self, triple: IdTriple) -> Triple:
        decode = self._backend.dictionary.decode
        return Triple(decode(triple[0]), decode(triple[1]), decode(triple[2]))

    # ------------------------------------------------------- insert / delete
    def _insert_rows(self, graph: URIRef, rows: List[IdTriple]) -> List[IdTriple]:
        """The one insert path (caller holds the write gate); returns the new rows.

        Undo and delta-log entries are recorded before the backend hook runs,
        so a hook failing mid-batch still unwinds every row the index took.
        """
        # An empty batch must not create the graph.
        inserted = self._backend.ensure_index(graph).add_many(rows) if rows else []
        if inserted:
            self._log_rows("add", graph, inserted)
            self._backend.quads_added(graph, inserted)
        return inserted

    def _delete_rows(self, graph: URIRef, index: GraphIndex, rows: Iterable[IdTriple]) -> List[IdTriple]:
        """The one delete path, :meth:`_insert_rows`'s mirror; returns the removed rows."""
        removed = index.remove_many(rows)
        if removed:
            self._log_rows("remove", graph, removed)
            self._backend.quads_removed(graph, removed)
        return removed

    def _log_rows(self, kind: str, graph: URIRef, rows: List[IdTriple]) -> None:
        """Undo, delta-log, change-mark and version bookkeeping of one row batch."""
        entries = [(kind, graph, row) for row in rows]
        if self._undo is not None:
            self._undo.extend(entries)
        if self._pending_ops is not None:
            self._pending_ops.extend(entries)
        self._backend.graph_changed(graph, self._commit_version + 1)
        self._version += len(rows)

    def add(
        self,
        subject: Any,
        predicate: Any,
        obj: Any,
        graph: URIRef = DEFAULT_GRAPH,
    ) -> bool:
        """Add a triple to ``graph``; returns ``False`` if it already existed."""
        return bool(self.add_many(((subject, predicate, obj),), graph))

    def add_many(
        self, triples: Iterable[Tuple[Any, Any, Any]], graph: URIRef = DEFAULT_GRAPH
    ) -> int:
        """Add triples to ``graph`` under one gate span; returns how many were new.

        Atomic for concurrent readers, and one micro-commit when no
        :meth:`write_batch` is open.  Terms are interned in row order, so a
        batch assigns the ids the same rows added one by one would.
        """
        return self.replace_nodes((), triples, graph)[1]

    def add_triples(
        self, triples: Iterable[Tuple[Any, Any, Any]], graph: URIRef = DEFAULT_GRAPH
    ) -> int:
        """Add many triples as one durable commit; returns the number inserted."""
        with self.write_batch():
            return self.add_many(triples, graph)

    def annotate(
        self,
        subject: Any,
        predicate: Any,
        obj: Any,
        annotation_predicate: Any,
        annotation_value: Any,
        graph: URIRef = DEFAULT_GRAPH,
    ) -> QuotedTriple:
        """Add an RDF-star annotation on the (asserted) triple.

        The base triple is added if absent, then
        ``<< s p o >> annotation_predicate annotation_value`` is asserted.
        This is how Algorithm 3 attaches similarity scores to similarity edges.
        """
        # One batch keeps the asserted triple and its annotation atomic for
        # concurrent readers.
        quoted = QuotedTriple(subject, predicate, obj)
        rows = ((subject, predicate, obj), (quoted, annotation_predicate, annotation_value))
        self.add_many(rows, graph)
        return quoted

    def remove(
        self, subject: Any, predicate: Any, obj: Any, graph: URIRef = DEFAULT_GRAPH
    ) -> bool:
        """Remove a triple from ``graph`` if present."""
        depth = self._begin_write()
        try:
            index = self._backend.get_index(graph)
            lookup = self._backend.dictionary.lookup
            triple = (lookup(subject), lookup(predicate), lookup(obj))
            if index is None or None in triple:
                return False
            return bool(self._delete_rows(graph, index, (triple,)))
        finally:
            self._end_write(depth)

    def retract_nodes(self, nodes: Iterable[Any], graph: URIRef = DEFAULT_GRAPH) -> int:
        """Remove every triple of ``graph`` that touches one of ``nodes``.

        A triple touches a node that is its subject or object, or the inner
        subject or object of its quoted-triple subject (the score annotations
        of the node's edges).  Returns the number removed.
        """
        return self.replace_nodes(nodes, (), graph)[0]

    def replace_nodes(
        self,
        nodes: Iterable[Any],
        triples: Iterable[Tuple[Any, Any, Any]],
        graph: URIRef = DEFAULT_GRAPH,
    ) -> Tuple[int, int]:
        """Swap the triples touching ``nodes`` for ``triples``, writing only the difference.

        Leaves the store exactly as :meth:`retract_nodes` followed by
        :meth:`add_many` would — the same triples under the same term ids,
        since every row of ``triples`` is encoded in order — but a row of
        the old footprint that ``triples`` writes again is neither deleted
        nor re-inserted, so the undo log, the delta log, the backend and
        every replica see only the rows that change: deletes first, in the
        footprint's walk order, then inserts in ``triples``' order.  Runs in
        id space under one gate span: the nodes' buckets are read off the
        graph index, nothing is decoded.  Returns ``(removed, inserted)``.
        """
        depth = self._begin_write()
        try:
            dictionary = self._backend.dictionary
            node_ids = [dictionary.lookup(node) for node in nodes]
            index = self._backend.get_index(graph) if node_ids else None
            footprint: List[IdTriple] = []
            if index is not None:
                buckets = (index.by_subject, index.by_object, index.by_quoted_subject, index.by_quoted_object)
                footprint = [row for node_id in node_ids for by_id in buckets for row in by_id.get(node_id, ())]
            encode = dictionary.encode
            rows = [(encode(s), encode(p), encode(o)) for s, p, o in triples]
            removed = 0
            if footprint:
                kept = set(rows)
                removed = len(self._delete_rows(graph, index, [row for row in footprint if row not in kept]))
            return removed, len(self._insert_rows(graph, rows))
        finally:
            self._end_write(depth)

    def remove_graph(self, graph: URIRef) -> bool:
        """Drop an entire named graph (one shard delete on durable backends)."""
        depth = self._begin_write()
        try:
            if self._undo is not None:
                token = self._backend.drop_graph_for_undo(graph)
                dropped = token is not None
                if dropped:
                    self._undo.append(("drop", graph, token))
            else:
                dropped = self._backend.drop_graph(graph)
            if dropped:
                if self._pending_ops is not None:
                    self._pending_ops.append(("drop", graph, None))
                self._version += 1
            return dropped
        finally:
            self._end_write(depth)

    # ----------------------------------------------------------------- query
    def graphs(self) -> List[URIRef]:
        """The names of all graphs currently holding triples."""
        return self._backend.graph_names()

    def match(
        self,
        subject: Any = None,
        predicate: Any = None,
        obj: Any = None,
        graph: Optional[URIRef] = None,
    ) -> Iterator[Tuple[Triple, URIRef]]:
        """Iterate ``(triple, graph)`` pairs matching the quad pattern."""
        ids = (self._lookup_id(subject), self._lookup_id(predicate), self._lookup_id(obj))
        if _ABSENT in ids:
            return
        for triple, graph_name in self.match_ids(*ids, graph):
            yield self._decode_triple(triple), graph_name

    def match_ids(
        self,
        subject_id: Optional[int] = None,
        predicate_id: Optional[int] = None,
        object_id: Optional[int] = None,
        graph: Optional[URIRef] = None,
    ) -> Iterator[Tuple[IdTriple, URIRef]]:
        """Id-level :meth:`match`: yields ``(id_triple, graph)`` undecoded.

        The batched SPARQL executor's access path — results stay in id space
        so joins compare machine ints and nothing is decoded until FILTER
        evaluation / final projection.
        """
        for graph_name, index in self._backend.items(graph):
            for triple in index.match(subject_id, predicate_id, object_id):
                yield triple, graph_name

    def match_id_arrays(
        self,
        subject_id: Optional[int] = None,
        predicate_id: Optional[int] = None,
        object_id: Optional[int] = None,
        graph: Optional[URIRef] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array-level :meth:`match_ids`: matches as three parallel id columns.

        Concatenates the per-graph column snapshots when the graph is a
        wildcard; the vectorized SPARQL scan path consumes these directly.
        """
        parts = [
            index.match_id_arrays(subject_id, predicate_id, object_id)
            for index in self._backend.indexes_for(graph)
        ]
        parts = [part for part in parts if len(part[0])]
        if not parts:
            empty = np.empty(0, np.int64)
            return empty, empty, empty
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
        )

    def estimate_matches(
        self,
        subject: Any = None,
        predicate: Any = None,
        obj: Any = None,
        graph: Optional[URIRef] = None,
    ) -> int:
        """Cheap upper bound on quad-pattern matches (index sizes, no scan).

        The SPARQL engine uses this as the selectivity estimate when ordering
        triple patterns; it never materializes candidates.
        """
        ids = (self._lookup_id(subject), self._lookup_id(predicate), self._lookup_id(obj))
        if _ABSENT in ids:
            return 0
        if graph is not None:  # the planner's hot path: one index, no generator
            index = self._backend.get_index(graph)
            return index.estimate(*ids) if index else 0
        return sum(index.estimate(*ids) for _, index in self._backend.items())

    def match_quoted(
        self,
        inner_subject: Any = None,
        inner_predicate: Any = None,
        inner_object: Any = None,
        predicate: Any = None,
        obj: Any = None,
        graph: Optional[URIRef] = None,
    ) -> Iterator[Tuple[Triple, URIRef]]:
        """Annotation triples whose quoted subject matches a *partial* pattern.

        The one-side-bound access path of RDF-star patterns: when only
        ``?c1`` of ``<< ?c1 p ?c2 >> ann ?v`` is known, the partial
        quoted-subject index answers directly instead of scanning every
        annotation triple.
        """
        ids = tuple(
            self._lookup_id(term)
            for term in (inner_subject, inner_predicate, inner_object, predicate, obj)
        )
        if _ABSENT in ids:
            return
        for graph_name, index in self._backend.items(graph):
            for triple in index.match_quoted(*ids):
                yield self._decode_triple(triple), graph_name

    def estimate_quoted_matches(
        self,
        inner_subject: Any = None,
        inner_object: Any = None,
        predicate: Any = None,
        obj: Any = None,
        graph: Optional[URIRef] = None,
    ) -> int:
        """Cheap upper bound on :meth:`match_quoted` results (index sizes only)."""
        ids = tuple(
            self._lookup_id(term)
            for term in (inner_subject, inner_object, predicate, obj)
        )
        if _ABSENT in ids:
            return 0
        if graph is not None:
            index = self._backend.get_index(graph)
            return index.estimate_quoted(*ids) if index else 0
        # The store-wide estimate is planner input, so it must never force a
        # shard load: non-resident graphs contribute their raw row count (a
        # valid upper bound on any quoted-pattern match) instead of exact
        # quoted-index sizes.
        total = 0
        for name in self._backend.graph_names():
            index = self._backend.resident_index(name)
            if index is not None:
                total += index.estimate_quoted(*ids)
            else:
                total += self._backend.triple_count(name)
        return total

    def triples(
        self,
        subject: Any = None,
        predicate: Any = None,
        obj: Any = None,
        graph: Optional[URIRef] = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the pattern across the selected graph(s)."""
        for triple, _ in self.match(subject, predicate, obj, graph):
            yield triple

    def contains(
        self,
        subject: Any,
        predicate: Any,
        obj: Any,
        graph: Optional[URIRef] = None,
    ) -> bool:
        """``True`` when the exact triple exists."""
        return any(True for _ in self.match(subject, predicate, obj, graph))

    def objects(
        self, subject: Any, predicate: Any, graph: Optional[URIRef] = None
    ) -> List[Any]:
        """All objects of ``(subject, predicate, ?)``."""
        return [t.object for t in self.triples(subject, predicate, None, graph)]

    def subjects(
        self, predicate: Any, obj: Any, graph: Optional[URIRef] = None
    ) -> List[Any]:
        """All subjects of ``(?, predicate, obj)``."""
        return [t.subject for t in self.triples(None, predicate, obj, graph)]

    def value(
        self, subject: Any, predicate: Any, graph: Optional[URIRef] = None, default: Any = None
    ) -> Any:
        """First object of ``(subject, predicate, ?)`` converted to Python."""
        for triple in self.triples(subject, predicate, None, graph):
            obj = triple.object
            return obj.to_python() if isinstance(obj, Literal) else obj
        return default

    def annotation(
        self,
        subject: Any,
        predicate: Any,
        obj: Any,
        annotation_predicate: Any,
        graph: Optional[URIRef] = None,
        default: Any = None,
    ) -> Any:
        """Read back an RDF-star annotation value for a triple."""
        quoted = QuotedTriple(subject, predicate, obj)
        return self.value(quoted, annotation_predicate, graph=graph, default=default)

    # ------------------------------------------------------------ statistics
    def __len__(self) -> int:
        return sum(self._backend.triple_count(graph) for graph in self.graphs())

    def num_triples(self, graph: Optional[URIRef] = None) -> int:
        """Number of triples, optionally restricted to one graph.

        Counting does not force lazily-stored graphs to load: durable
        backends answer from the shard catalog.
        """
        if graph is not None:
            return self._backend.triple_count(graph)
        return len(self)

    def unique_nodes(self) -> Set[Any]:
        """All subjects and objects that are not literals (LiDS-graph nodes)."""
        node_ids: Set[int] = set()
        for _, index in self._backend.items():
            for triple in index.triples:
                node_ids.add(triple[0])
                node_ids.add(triple[2])
        decode = self._backend.dictionary.decode
        nodes: Set[Any] = set()
        for node_id in node_ids:
            term = decode(node_id)
            if not isinstance(term, Literal):
                nodes.add(term)
        return nodes

    def unique_predicates(self) -> Set[Any]:
        """All predicates in the store."""
        predicate_ids: Set[int] = set()
        for _, index in self._backend.items():
            predicate_ids.update(index.by_predicate.keys())
        decode = self._backend.dictionary.decode
        return {decode(predicate_id) for predicate_id in predicate_ids}

    def predicate_statistics(
        self, predicate: Any, graph: Optional[URIRef] = None
    ) -> Optional[Dict[str, int]]:
        """Live cardinality statistics for one predicate.

        Returns ``{"count", "distinct_subjects", "distinct_objects"}``
        aggregated over the selected graph(s), or ``None`` when the predicate
        holds no triples there.  The statistics are maintained incrementally
        on every add/remove, so the SPARQL planner reads real cardinalities
        instead of applying fixed selectivity discounts.
        """
        predicate_id = self._backend.dictionary.lookup(predicate)
        if predicate_id is None:
            return None
        combined: Optional[Dict[str, int]] = None
        for _, index in self._backend.items(graph):
            stats = index.predicate_stats.get(predicate_id)
            if stats is None:
                continue
            if combined is None:
                combined = stats.to_dict()
            else:
                # Distinct counts cannot be merged exactly across graphs;
                # summing gives a safe upper bound on distinct terms (it can
                # only under-estimate fan-out, never the match count).
                for key, value in stats.to_dict().items():
                    combined[key] += value
        return combined

    def cardinality_statistics(
        self, graph: Optional[URIRef] = None
    ) -> Dict[Any, Dict[str, int]]:
        """Per-predicate cardinality statistics over the selected graph(s)."""
        predicate_ids: Set[int] = set()
        for _, index in self._backend.items(graph):
            predicate_ids.update(index.predicate_stats)
        decode = self._backend.dictionary.decode
        return {
            decode(predicate_id): self.predicate_statistics(decode(predicate_id), graph)
            for predicate_id in predicate_ids
        }

    def statistics(self) -> Dict[str, int]:
        """Summary statistics used by Table 3 (triples, nodes, edge types, graphs)."""
        return {
            "num_triples": len(self),
            "num_unique_nodes": len(self.unique_nodes()),
            "num_unique_predicates": len(self.unique_predicates()),
            "num_graphs": len(self.graphs()),
        }

    def estimated_size_bytes(self) -> int:
        """Rough serialized size: sum of N-Triples line lengths.

        Computed in id space with one length per distinct term — the
        dictionary means a term's text is measured once, not once per
        referencing triple.
        """
        decode = self._backend.dictionary.decode
        lengths: Dict[int, int] = {}
        total = 0
        for _, index in self._backend.items():
            for triple in index.triples:
                line = 5  # two separating spaces, " .", and the newline
                for term_id in triple:
                    length = lengths.get(term_id)
                    if length is None:
                        length = lengths[term_id] = len(term_n3(decode(term_id)))
                    line += length
                total += line
        return total
