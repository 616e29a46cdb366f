"""Quad-store backends: where the LiDS graph's quads live.

:class:`QuadStore` delegates all graph management to a backend, and there is
one backend shape with one implementation behind it:

* :class:`QuadStoreBackend` — the in-memory store, and the base every durable
  backend extends.  It owns the shared
  :class:`~repro.rdf.terms.TermDictionary` (term <-> integer-id interning),
  the resident ``graph -> GraphIndex`` map and every read over it
  (``graph_names``, ``get_index``, ``ensure_index``, ``items``,
  ``triple_count``, ``indexes_for``, ``resident_index``), the graphs created
  in the open batch (discarded on rollback), the undoable drop
  (``drop_graph_for_undo`` / ``restore_graph``) and the per-graph change marks
  replication reads.  Its persistence hooks are no-ops and its graphs die with
  the process.
* :class:`SqliteBackend` — overrides only what durability needs: the shard
  catalog, lazy shard load, shard create and drop, the row hooks, flush and
  close, the batch transaction, and its replication and crash primitives.
  Every write rides a batch transaction (a store mutation outside a batch
  is a one-op batch), so between batches nothing is buffered.
  Terms are persisted once in a ``terms`` dictionary table (a quoted triple
  as its three part ids in ``quoted``) and quads are sharded into one sqlite
  table of integer id-triples per named graph (the LiDS layout: one graph
  per pipeline plus the dataset / library / ontology graphs).  On open, the
  term dictionary's text is loaded eagerly (terms parse lazily on first
  decode) while a graph's index — per-predicate statistics and partial
  quoted-triple indexes included — is rebuilt lazily the first time the
  graph is touched, so reopening a governed lake never pays for graphs a
  query does not read.  A loaded index stays resident until its graph is
  dropped or replaced underneath it (``replace_shard``, a failed replica
  apply).

Both hand out the same id-keyed :class:`~repro.rdf.graph_index.GraphIndex`
for matching, so pattern semantics, cardinality statistics and therefore
SPARQL ``explain()`` plans do not depend on where the quads live.

Both backends intern a term by its N-Triples spelling, live and reopened
(see :class:`~repro.rdf.terms.TermDictionary`).
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.rdf.graph_index import GraphIndex, IdTriple
from repro.rdf.terms import TermDictionary, URIRef, parse_term, term_n3

PathLike = Union[str, Path]


class QuadStoreBackend:
    """The in-memory backend, and the base of every durable one.

    The reader side hands out :class:`GraphIndex` objects (``get_index`` /
    ``ensure_index`` / ``items``) that share the backend's ``dictionary``;
    the writer side receives persistence hooks *after* the in-memory index
    has been updated (``quads_added`` etc., all id-encoded, one call per
    row batch), which this class ignores and a durable backend buffers.

    A durable backend keeps ``_indexes`` as its *resident* subset and
    overrides :attr:`_catalog` (every graph it holds, loaded or not),
    ``get_index`` (lazy load), ``_create_graph`` (shard create) and
    ``drop_graph`` (shard drop); everything else here reads those.
    """

    #: Whether this backend survives process restarts.
    persistent = False

    def __init__(self):
        #: The term dictionary shared by every graph of this backend.
        self.dictionary: TermDictionary = TermDictionary()
        #: Resident per-graph indexes (here: every graph).
        self._indexes: Dict[URIRef, GraphIndex] = {}
        #: Indexes created by the open batch (``None`` outside a batch).
        self._batch_created: Optional[Dict[URIRef, GraphIndex]] = None
        #: Per-graph change high-water marks (see :meth:`graph_changed`).
        self._change_marks: Dict[URIRef, int] = {}
        #: Versions at or below this may hide changes (see :meth:`changed_since`).
        self._change_baseline = 0
        #: What the backend verified and repaired on open.
        self.recovery: Dict[str, Any] = {}

    # ----------------------------------------------------------------- graphs
    @property
    def _catalog(self) -> Dict[URIRef, Any]:
        """``graph name -> entry`` for every graph held, in creation order.

        The entry is what :meth:`restore_graph` puts back after an undoable
        drop: here the index itself, a shard id on a durable backend.
        """
        return self._indexes

    def graph_names(self) -> List[URIRef]:
        """Names of all graphs currently holding triples (no index loads)."""
        return list(self._catalog)

    def get_index(self, graph: URIRef) -> Optional[GraphIndex]:
        """The graph's index, loading it if necessary; ``None`` when absent."""
        return self._indexes.get(graph)

    def ensure_index(self, graph: URIRef) -> GraphIndex:
        """The graph's index, creating the graph when absent."""
        index = self.get_index(graph)
        return index if index is not None else self._create_graph(graph)

    def _create_graph(self, graph: URIRef) -> GraphIndex:
        """A new empty graph, remembered by the open batch for rollback."""
        index = self._indexes[graph] = GraphIndex(self.dictionary)
        if self._batch_created is not None:
            # The first index wins: a graph created, dropped and re-created
            # in one batch gets its first index back from undo replay.
            self._batch_created.setdefault(graph, index)
        return index

    def drop_graph(self, graph: URIRef) -> bool:
        """Drop a whole named graph (a backend-level retraction primitive)."""
        return self._indexes.pop(graph, None) is not None

    def items(self, graph: Optional[URIRef] = None) -> List[Tuple[URIRef, GraphIndex]]:
        """``(name, index)`` of ``graph`` (none when absent), or of every graph
        when ``graph`` is ``None`` (loads all lazily-stored graphs)."""
        if graph is None:
            return [(name, self.get_index(name)) for name in self.graph_names()]
        index = self.get_index(graph)
        return [(graph, index)] if index is not None else []

    def triple_count(self, graph: URIRef) -> int:
        """Number of triples in one graph, without forcing an index load."""
        index = self.get_index(graph)
        return len(index.triples) if index is not None else 0

    def indexes_for(self, graph: Optional[URIRef]) -> List[GraphIndex]:
        """The indexes a quad pattern over ``graph`` must consult.

        One index for a named graph (empty when absent), every index for the
        default-graph wildcard.  The SPARQL planner's single entry point for
        resolving a pattern's graph scope to concrete indexes.
        """
        return [index for _, index in self.items(graph)]

    def resident_index(self, graph: URIRef) -> Optional[GraphIndex]:
        """The graph's index only if it is already in memory (no load).

        Undo replay targets exactly the state a failed batch touched: an
        index invalidated (or never loaded) during the batch is rebuilt from
        durable storage on next touch, which the backend rollback already
        restored — replaying into a fresh load would double-revert.
        """
        return self._indexes.get(graph)

    # ------------------------------------------------------ persistence hooks
    def quads_added(self, graph: URIRef, rows: List[IdTriple]) -> None:
        """Called after id-triples were inserted into the graph's index (in order)."""

    def quads_removed(self, graph: URIRef, rows: List[IdTriple]) -> None:
        """Called after id-triples were removed from the graph's index (in order)."""

    def flush(self) -> None:
        """Write the open batch's buffered rows into its transaction (no-op
        for volatile backends)."""

    def close(self) -> None:
        """Release any resources; the backend must not be used afterwards.

        Drops each resident index's column snapshot: it and the views built
        on it refer back to the index, a cycle that would hold a closed
        store's memory until the cycle collector's next full pass.
        """
        for index in self._indexes.values():
            index._columnar = None

    # ------------------------------------------------------------ transactions
    def begin_batch(self) -> None:
        """Open one atomic commit batch (caller holds the store's write gate).

        Everything mutated until :meth:`commit_batch` either lands as one
        durable commit or is wound back entirely by :meth:`rollback_batch`.
        The term dictionary is marked so an aborted batch cannot leak
        interned ids (which would change the ids — and therefore the durable
        byte layout — of later terms).
        """
        self._dictionary_mark = self.dictionary.mark()
        self._batch_created = {}

    def commit_batch(self, commit_version: int) -> None:
        """Make the open batch durable, stamped with ``commit_version``."""
        self._batch_created = None

    def rollback_batch(self) -> None:
        """Discard the open batch's graphs, durable writes and dictionary entries.

        The store has already replayed its undo log against the resident
        indexes; this only unwinds backend-owned state: the graphs the batch
        created and the terms it interned (a durable backend also drops its
        buffered rows and the open transaction).
        """
        created, self._batch_created = self._batch_created, None
        for graph, index in (created or {}).items():
            # Identity guard: a graph dropped and re-created during the batch
            # may by now hold a *restored* pre-batch index (undo replay runs
            # before this) — only discard the index this batch created.
            if self._indexes.get(graph) is index:
                del self._indexes[graph]
        self.dictionary.rollback_to(self._dictionary_mark)

    def drop_graph_for_undo(self, graph: URIRef) -> Optional[Any]:
        """Drop a graph, returning an opaque token that can restore it.

        ``None`` means the graph did not exist (nothing to undo).  The token
        is only valid within the current batch, passed to
        :meth:`restore_graph` during rollback.
        """
        entry = self._catalog.get(graph)
        if entry is None:
            return None
        token = (entry, self._indexes.get(graph))
        self.drop_graph(graph)
        return token

    def restore_graph(self, graph: URIRef, token: Any) -> None:
        """Reinstate a graph dropped via :meth:`drop_graph_for_undo`.

        Only the in-memory mappings come back: a durable backend's batch
        rollback resurrects the shard itself.
        """
        entry, index = token
        self._catalog[graph] = entry
        if index is not None:
            self._indexes[graph] = index

    def committed_version(self) -> int:
        """The last durably committed commit version (0 for volatile stores)."""
        return 0

    # ------------------------------------------------------- change inspection
    def graph_changed(self, graph: URIRef, version: int) -> None:
        """Record that ``graph`` is mutated by the commit at ``version``.

        The store calls this on every mutation path (with the version the
        mutation will commit as); replication uses the recorded high-water
        marks to ship only the graphs a follower is missing.  Rolled-back
        versions may stay recorded — over-reporting a change is safe (the
        follower re-pulls an identical shard), under-reporting is not.
        """
        if version > self._change_marks.get(graph, 0):
            self._change_marks[graph] = version

    def changed_since(self, version: int) -> List[URIRef]:
        """Graphs that may hold changes committed after ``version``.

        Never under-reports: graphs with no recorded change version are
        assumed changed at the change baseline — 0 for a fresh store, which
        has seen every mutation; the durable commit version at open for a
        store opened on a file, which cannot know when its pre-existing
        graphs last changed.  Dropped graphs are not listed (they are no
        longer in the catalog); followers diff the catalog itself to observe
        drops.
        """
        versions, baseline = self._change_marks, self._change_baseline
        return [
            graph for graph in self.graph_names() if versions.get(graph, baseline) > version
        ]


class SqliteBackend(QuadStoreBackend):
    """A sqlite-backed quad store with one shard table per named graph.

    Layout: a ``graphs`` catalog table maps graph names to shard ids; a
    ``terms`` dictionary table holds every distinct term once (``id``,
    N-Triples ``n3`` text) but quoted triples, which ``quoted`` holds as
    ``(id, s, p, o)`` part ids; ``meta`` holds the commit version and the
    layout version; shard ``quads_<id>`` holds that graph's triples as three
    integer id columns keyed by their ``(s, p, o)`` primary key.
    There are no secondary indexes: term uniqueness is the in-memory
    dictionary's job (terms are looked up there, never by SQL), and all
    matching runs on the shared :class:`GraphIndex`, rebuilt lazily per
    graph on first touch — a pure integer scan, no term parsing — so the
    cardinality statistics and partial quoted-triple indexes the SPARQL
    planner sees are exactly the statistics the in-memory backend would
    produce.

    Every write happens inside a batch, one ``BEGIN IMMEDIATE`` transaction
    that :meth:`commit_batch` commits stamped with its commit version.  Quad
    writes are buffered (insert/delete order preserved) and written into
    that transaction once ``flush_threshold`` operations are waiting
    (checked per hook call, so after a whole row batch), before a shard
    read, and at commit.  The dictionary keeps no write queue: the backend
    remembers one watermark below which every id is on disk exactly as the
    dictionary holds it, and a commit writes the rows from there up to
    ``dictionary.next_id`` — ahead of the quad rows referencing them — with
    the same ``export_rows`` / ``export_quoted_parts`` replication ships.
    The watermark moves only when the COMMIT succeeded, so no row above it
    is ever on disk and a commit only appends term rows.  A replica's
    backend takes shipped state inside the store's ``replication_batch``
    alone — the dictionary adopts the shipped term rows,
    :meth:`apply_row_delta`, :meth:`replace_shard` and :meth:`drop_graph`
    the quad rows — and the batch commit makes both durable at the
    writer's version.

    ``shard_loads`` counts the shard loads.  Per-graph mutation counters
    survive :meth:`invalidate_resident`: a reloaded index resumes *above* the
    dropped index's version.

    The sqlite connection is shared across threads (created with
    ``check_same_thread=False``) and every use of it is serialized by an
    internal lock, so a background ingestion thread and reader threads can
    coexist on one backend.  Higher-level read/write *consistency* (torn
    reads, batch atomicity) is the store's gate's job — see
    ``QuadStore.read_view`` / ``QuadStore.write_batch``.
    """

    persistent = True

    #: Buffered quad operations that make a batch write its rows into the
    #: open transaction (bounds a bulk batch's memory).
    flush_threshold = 8192

    def __init__(self, path: PathLike):
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Shard loads (lazy first touches *and* post-invalidation reloads).
        self.shard_loads = 0
        #: Serializes every use of the shared sqlite connection.  The
        #: connection is created with ``check_same_thread=False`` so a
        #: governor-service scheduler thread can commit writes while readers
        #: on other threads trigger lazy shard loads; sqlite objects are
        #: not otherwise thread-safe, so all cursor work happens under this
        #: lock (reentrant: ``flush`` runs inside other locked sections).
        self._db_lock = threading.RLock()
        self._in_batch = False
        self._shards_snapshot: Optional[Dict[URIRef, int]] = None
        self._connection = self._connect()
        self._ensure_layout()
        #: The commit version of the last durable commit (the recovery marker).
        self._durable_version = self._read_meta("commit_version")
        #: Graphs existing at open changed at-or-before this version (see
        #: ``changed_since``): opening a file loses the in-memory change marks.
        self._change_baseline = self._durable_version
        #: graph name -> shard id, in catalog order (deterministic open).
        self._shards: Dict[URIRef, int] = {
            URIRef(name): shard_id
            for shard_id, name in self._connection.execute(
                "SELECT id, name FROM graphs ORDER BY id"
            )
        }
        #: Version offset carried across invalidations, per graph (monotonicity).
        self._version_base: Dict[URIRef, int] = {}
        #: Ordered write buffer: ``(op, shard_id, params)``.
        self._pending: List[Tuple[str, int, Tuple[int, ...]]] = []
        #: Dictionary ids below this are in ``terms`` / ``quoted`` exactly as
        #: the dictionary holds them, and no row at or above it is on disk
        #: (set by :meth:`_load_dictionary`).
        self._terms_written = 1
        self._closed = False
        #: What :meth:`_recover` found and repaired on open (see that method).
        self.recovery = self._recover()
        self._load_dictionary()

    def _connect(self) -> sqlite3.Connection:
        # ``isolation_level=None`` turns off the sqlite3 module's implicit
        # transaction management: every commit boundary below is an explicit
        # BEGIN IMMEDIATE / COMMIT, so DDL (shard creation, drops) rides the
        # same journaled transaction as the row writes it belongs with and a
        # crash mid-flush rolls the whole commit back on reopen.
        connection = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        return connection

    #: ``meta.layout`` of files this code writes: 2 keeps a quoted triple as
    #: its part ids in ``quoted``; 1 (no ``layout`` row) spelled it in ``terms``.
    _LAYOUT = 2

    def _ensure_layout(self) -> None:
        self._txn_begin()
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS graphs ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " name TEXT UNIQUE NOT NULL)"
        )
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS terms ("
            " id INTEGER PRIMARY KEY,"
            " n3 TEXT NOT NULL)"
        )
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS quoted ("
            " id INTEGER PRIMARY KEY,"
            " s INTEGER NOT NULL,"
            " p INTEGER NOT NULL,"
            " o INTEGER NOT NULL)"
        )
        self._connection.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            " key TEXT PRIMARY KEY,"
            " value INTEGER NOT NULL)"
        )
        self._connection.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('commit_version', 0)"
        )
        # A file without the row is in layout 1 (a new one is too, with no
        # term to move yet): :meth:`_migrate_layout` brings it to today's.
        self._connection.execute("INSERT OR IGNORE INTO meta (key, value) VALUES ('layout', 1)")
        self._txn_commit()

    def _load_dictionary(self) -> None:
        """Load every persisted term and quoted row."""
        self.dictionary.load_rows(
            self._connection.execute("SELECT id, n3 FROM terms"),
            self._connection.execute("SELECT id, s, p, o FROM quoted").fetchall(),
        )
        self._terms_written = self.dictionary.next_id

    def _read_meta(self, key: str) -> int:
        return int(
            self._connection.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()[0]
        )

    # ----------------------------------------------------------------- graphs
    @property
    def _catalog(self) -> Dict[URIRef, int]:
        return self._shards

    def get_index(self, graph: URIRef) -> Optional[GraphIndex]:
        index = self._indexes.get(graph)
        if index is None:
            with self._db_lock:
                # Re-check under the lock: another reader may have loaded
                # the shard while this thread waited.
                index = self._indexes.get(graph)
                if index is None:
                    shard_id = self._shards.get(graph)
                    if shard_id is None:
                        return None
                    index = self._load_shard(graph, shard_id)
        return index

    def _create_graph(self, graph: URIRef) -> GraphIndex:
        # Publish the catalog/index entries under the same lock as the DDL so
        # a concurrent reader can never see the shard id without its table
        # (or vice versa).  The DDL rides the batch transaction (sqlite DDL
        # is transactional), so a rollback removes the catalog row and the
        # shard table together.
        with self._db_lock:
            self._ensure_shard(graph)
            return super()._create_graph(graph)

    def _ensure_shard(self, graph: URIRef) -> int:
        """Create the catalog row + shard table for ``graph`` if missing.

        Caller must hold ``_db_lock`` inside a batch.  Returns the shard id
        either way.
        """
        shard_id = self._shards.get(graph)
        if shard_id is None:
            cursor = self._execute_retry("INSERT INTO graphs (name) VALUES (?)", (str(graph),))
            shard_id = int(cursor.lastrowid)
            self._create_shard_table(shard_id)
            self._shards[graph] = shard_id
        return shard_id

    def drop_graph(self, graph: URIRef) -> bool:
        with self._db_lock:
            shard_id = self._shards.get(graph)
            if shard_id is None:
                return False
            # The drop rides the batch transaction; its rollback restores
            # the table and the catalog row.  Buffered writes against the
            # shard are moot once the table is gone; rebuilding the buffer
            # under the lock keeps a concurrent reader-triggered flush from
            # re-running ops it already drained.
            self._connection.execute(f"DROP TABLE IF EXISTS quads_{shard_id}")
            self._connection.execute("DELETE FROM graphs WHERE id = ?", (shard_id,))
            del self._shards[graph]
            self._indexes.pop(graph, None)
            self._pending = [op for op in self._pending if op[1] != shard_id]
        return True

    def triple_count(self, graph: URIRef) -> int:
        index = self._indexes.get(graph)
        if index is not None:
            return len(index.triples)
        shard_id = self._shards.get(graph)
        if shard_id is None:
            return 0
        with self._db_lock:
            self.flush()
            row = self._connection.execute(
                f"SELECT COUNT(*) FROM quads_{shard_id}"
            ).fetchone()
        return int(row[0])

    # ------------------------------------------------------ persistence hooks
    def quads_added(self, graph: URIRef, rows: List[IdTriple]) -> None:
        self._queue_rows("insert", self._shards[graph], rows)

    def quads_removed(self, graph: URIRef, rows: List[IdTriple]) -> None:
        self._queue_rows("delete", self._shards[graph], rows)

    def flush(self) -> None:
        """Write the buffered quad rows, in order, into the open batch
        transaction; :meth:`commit_batch` owns the COMMIT, the dictionary
        rows and the version stamp, so a mid-batch flush stays atomic with
        the rest of the batch.  Rows are buffered only inside a batch."""
        with self._db_lock:
            if not self._pending:
                return
            pending, self._pending = self._pending, []
            position = 0
            while position < len(pending):
                op, shard_id, _ = pending[position]
                batch_end = position
                while (
                    batch_end < len(pending)
                    and pending[batch_end][0] == op
                    and pending[batch_end][1] == shard_id
                ):
                    batch_end += 1
                rows = [params for _, _, params in pending[position:batch_end]]
                self._executemany_retry(
                    self._STATEMENTS[op].format(shard=shard_id), rows
                )
                position = batch_end

    def _flush_rows(self) -> None:
        """Write the dictionary rows past the watermark, then the buffered
        quad rows (no transaction control)."""
        dictionary, start = self.dictionary, self._terms_written
        self._executemany_retry(self._STATEMENTS["terms"], dictionary.export_rows(start))
        parts = iter(dictionary.export_quoted_parts(start))
        self._executemany_retry(self._STATEMENTS["quoted"], list(zip(parts, parts, parts, parts)))
        self.flush()

    def close(self) -> None:
        with self._db_lock:
            if self._closed:
                return
            self._connection.close()
            self._closed = True
            super().close()

    # ------------------------------------------------------------ transactions
    def begin_batch(self) -> None:
        with self._db_lock:
            super().begin_batch()
            self._shards_snapshot = dict(self._shards)
            self._txn_begin()
            self._in_batch = True

    def commit_batch(self, commit_version: int) -> None:
        with self._db_lock:
            self._flush_rows()
            self._connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'commit_version'", (commit_version,)
            )
            self._txn_commit()
            self._terms_written = self.dictionary.next_id
            self._durable_version = commit_version
            self._in_batch = False
            self._batch_created = None
            self._shards_snapshot = None

    def rollback_batch(self) -> None:
        with self._db_lock:
            if not self._in_batch:
                return
            self._in_batch = False
            self._pending.clear()
            if not self._closed:
                # No transaction is open after an injected "crash" tore it
                # down; the journal rollback then happens on reopen.  The
                # rollback takes back any dictionary row or version stamp a
                # failed commit wrote; the watermark and the durable version
                # never moved.
                self._txn_rollback()
            super().rollback_batch()
            self._shards, self._shards_snapshot = self._shards_snapshot, None

    def committed_version(self) -> int:
        return self._durable_version

    # ------------------------------------------------------------- replication
    def replace_shard(self, graph: URIRef, rows: List[Tuple[int, int, int]]) -> None:
        """Overwrite ``graph``'s shard with exactly ``rows`` (id triples).

        The full-snapshot replication path: used when a delta log cannot
        bridge the follower's version.  The resident index (if any) is
        invalidated, not patched — the next reader rebuilds it lazily from
        the shard, which is the cheap "lazy ``GraphIndex`` rebuild" the
        serving tier relies on.
        """
        with self._db_lock:
            shard_id = self._ensure_shard(graph)
            # Buffered writes against the shard are superseded by the
            # authoritative row set.
            self._pending = [op for op in self._pending if op[1] != shard_id]
            self._execute_retry(f"DELETE FROM quads_{shard_id}")
            if rows:
                self._executemany_retry(self._STATEMENTS["insert"].format(shard=shard_id), rows)
            self.invalidate_resident(graph)

    def apply_row_delta(
        self,
        graph: URIRef,
        added: List[Tuple[int, int, int]],
        removed: List[Tuple[int, int, int]],
    ) -> None:
        """Apply a shipped per-commit row delta to ``graph``.

        A resident index is patched in place (and only genuinely-new /
        genuinely-present rows are queued, keeping its row count exact); a
        non-resident shard takes the whole delta straight into the write
        buffer — ``INSERT OR IGNORE`` / ``DELETE`` are idempotent, so
        re-shipped rows are harmless.
        """
        with self._db_lock:
            shard_id = self._ensure_shard(graph)
            index = self._indexes.get(graph)
            if index is not None:
                removed = index.remove_many(removed)
                added = index.add_many(added)
            self._queue_rows("delete", shard_id, removed)
            self._queue_rows("insert", shard_id, added)

    def invalidate_resident(self, graph: URIRef) -> None:
        """Drop ``graph``'s resident index so the next reader rebuilds it.

        The version base is bumped past the dropped index's counter so the
        rebuilt index resumes *above* it — version-keyed caches keyed on
        ``GraphIndex.version`` can never see a stale counter.
        """
        with self._db_lock:
            index = self._indexes.pop(graph, None)
            if index is not None:
                self._version_base[graph] = index.version + 1

    def checkpoint(self) -> None:
        """Fold the WAL back into the main database file (best effort).

        ``KGGovernor.save`` calls this so a bare file copy of
        the database is complete without the ``-wal`` sidecar.
        """
        with self._db_lock:
            if self._closed or self._in_batch:
                return
            try:
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass

    def crash(self) -> None:
        """Simulate abrupt process death (fault-injection hook).

        Buffered writes are dropped and the connection is severed with the
        current transaction uncommitted — exactly what a ``kill -9`` would
        leave behind.  Reopening the path recovers to the last committed
        ``commit_version`` via the sqlite journal.
        """
        with self._db_lock:
            if self._closed:
                return
            self._pending.clear()
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._closed = True

    def _txn_begin(self) -> None:
        # IMMEDIATE takes the write lock up front so a later writer conflict
        # surfaces here (where the bounded retry handles it) rather than at
        # COMMIT, where rolling back would lose the batch.
        self._execute_retry("BEGIN IMMEDIATE")

    def _txn_commit(self) -> None:
        self._execute_retry("COMMIT")

    def _txn_rollback(self) -> None:
        try:
            self._connection.execute("ROLLBACK")
        except sqlite3.OperationalError:
            pass

    #: Bounded-backoff policy for transient ``database is locked`` errors.
    lock_retries = 6
    lock_retry_delay = 0.01

    def _execute_retry(self, sql: str, params: Tuple = ()) -> sqlite3.Cursor:
        """``execute`` with bounded backoff on transient lock contention.

        WAL mode plus the internal connection lock makes contention rare,
        but an external process holding the database (e.g. a snapshot copy
        or a second governor) surfaces as ``database is locked`` /
        ``database is busy`` — transient conditions worth a few short sleeps
        before giving up.
        """
        return self._retry(self._connection.execute, sql, params)

    def _executemany_retry(self, sql: str, rows: List[Tuple]) -> sqlite3.Cursor:
        return self._retry(self._connection.executemany, sql, rows)

    def _retry(self, run, sql: str, args) -> sqlite3.Cursor:
        delay = self.lock_retry_delay
        for _ in range(1, self.lock_retries):
            try:
                return run(sql, args)
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                if "locked" not in message and "busy" not in message:
                    raise
            time.sleep(delay)
            delay = min(delay * 2, 0.25)
        return run(sql, args)

    @contextmanager
    def _transaction(self):
        """One journaled BEGIN IMMEDIATE / COMMIT for the open-time layout
        work, rolled back if the body or the COMMIT raises."""
        self._txn_begin()
        try:
            yield
            self._txn_commit()
        except BaseException:
            self._txn_rollback()
            raise

    def _recover(self) -> Dict[str, Any]:
        """Bring the file to today's layout and verify it against the
        committed marker on open.

        A file in layout 1 is migrated first (:meth:`_migrate_layout`).
        With journaled transactions a crash cannot tear a commit, but a
        database written by older code (or meddled with externally) may hold
        catalog rows without shard tables or orphan shard tables without
        catalog rows.  Both are discarded — the catalog is the source of
        truth for what the last commit contained.
        """
        migrated = self._migrate_layout()
        existing = {
            name
            for (name,) in self._connection.execute(
                "SELECT name FROM sqlite_master"
                " WHERE type = 'table' AND name LIKE 'quads_%'"
            )
        }
        torn = [
            graph
            for graph, shard_id in self._shards.items()
            if f"quads_{shard_id}" not in existing
        ]
        catalog = {f"quads_{shard_id}" for shard_id in self._shards.values()}
        orphans = sorted(existing - catalog)
        if torn or orphans:
            with self._db_lock, self._transaction():
                for graph in torn:
                    shard_id = self._shards.pop(graph)
                    self._connection.execute(
                        "DELETE FROM graphs WHERE id = ?", (shard_id,)
                    )
                for table in orphans:
                    self._connection.execute(f"DROP TABLE IF EXISTS {table}")
        return {
            "commit_version": self._durable_version,
            "discarded_shards": [str(graph) for graph in torn],
            "dropped_orphan_tables": orphans,
            "migrated_quoted_terms": migrated,
        }

    def _migrate_layout(self) -> int:
        """Move layout 1's quoted spellings out of ``terms`` into ``quoted``
        part rows, in one transaction; returns how many moved.

        Each part's id is the ``terms`` row of its canonical spelling (a
        nested quoted part is itself a row), so ids do not change.
        """
        if self._read_meta("layout") >= self._LAYOUT:
            return 0
        with self._db_lock, self._transaction():
            # Another connection may have migrated the file meanwhile.
            if self._read_meta("layout") >= self._LAYOUT:
                return 0
            text_to_id = {
                text: term_id for term_id, text in self._connection.execute("SELECT id, n3 FROM terms")
            }
            rows = []
            for text, term_id in text_to_id.items():
                if text.startswith("<<"):
                    triple = parse_term(text).as_triple()
                    rows.append((term_id, *(text_to_id[term_n3(part)] for part in triple)))
            self._executemany_retry(self._STATEMENTS["quoted"], rows)
            self._executemany_retry("DELETE FROM terms WHERE id = ?", [row[:1] for row in rows])
            self._execute_retry("UPDATE meta SET value = ? WHERE key = 'layout'", (self._LAYOUT,))
        return len(rows)

    # -------------------------------------------------------------- internals
    _STATEMENTS = {
        "insert": "INSERT OR IGNORE INTO quads_{shard} (s, p, o) VALUES (?, ?, ?)",
        "delete": "DELETE FROM quads_{shard} WHERE s = ? AND p = ? AND o = ?",
        "terms": "INSERT INTO terms (id, n3) VALUES (?, ?)",
        "quoted": "INSERT INTO quoted (id, s, p, o) VALUES (?, ?, ?, ?)",
    }

    def _create_shard_table(self, shard_id: int) -> None:
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS quads_{shard_id} ("
            " s INTEGER NOT NULL,"
            " p INTEGER NOT NULL,"
            " o INTEGER NOT NULL,"
            " PRIMARY KEY (s, p, o)"
            ") WITHOUT ROWID"
        )

    def _queue_rows(self, op: str, shard_id: int, rows: Iterable[Tuple[int, ...]]) -> None:
        self._pending.extend([(op, shard_id, params) for params in rows])
        if len(self._pending) >= self.flush_threshold:
            self.flush()

    def _load_shard(self, graph: URIRef, shard_id: int) -> GraphIndex:
        """Rebuild a graph's index (stats and quoted indexes included) from disk.

        A pure integer scan: the shard rows are already id-triples, and the
        quoted-triple structure is the shared dictionary's part-id map.
        """
        # Writes require a loaded index, so a lazily-loaded shard normally has
        # no buffered ops — flush anyway so the read below is complete.
        index = GraphIndex(self.dictionary)
        with self._db_lock:
            self.flush()
            # Key order on every layout: a file written by older code still
            # has a ``(p)`` index that would otherwise serve this scan.
            index.add_many(
                self._connection.execute(f"SELECT s, p, o FROM quads_{shard_id} ORDER BY s, p, o")
            )
        # Resume the mutation counter above any pre-invalidation value so
        # version-keyed reader caches cannot mistake a reload for no change.
        index.version += self._version_base.get(graph, 0)
        self._indexes[graph] = index
        self.shard_loads += 1
        return index
