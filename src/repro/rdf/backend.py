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
  close, the batch transaction, and its replication / reopen / crash
  primitives.  Terms are persisted once in a ``terms`` dictionary table (a
  quoted triple as its three part ids in ``quoted``) and quads are sharded
  into one sqlite table of integer id-triples per named graph (the LiDS
  layout: one graph per pipeline plus the dataset / library / ontology
  graphs).  Writes are buffered and flushed in batches; on open, the
  term dictionary's text is loaded eagerly (terms parse lazily on first
  decode) while a graph's index — per-predicate statistics and partial
  quoted-triple indexes included — is rebuilt lazily the first time the graph
  is touched, so reopening a governed lake never pays for graphs a query does
  not read.  A loaded index stays resident until its graph is dropped or
  replaced underneath it (``replace_shard``, ``reopen``).

Both hand out the same id-keyed :class:`~repro.rdf.graph_index.GraphIndex`
for matching, so pattern semantics, cardinality statistics and therefore
SPARQL ``explain()`` plans do not depend on where the quads live.

Terms are persisted in their N-Triples text form (``term_n3``) and parsed
back with :func:`repro.rdf.terms.parse_term`; plain Python values that the
in-memory backend would keep raw are therefore normalized to
:class:`~repro.rdf.terms.Literal` objects on reload — and two in-memory
terms whose spelling differs only in that respect (``"5"`` vs
``Literal("5")``) alias to the *same* dictionary id, so their triples
collapse to one durable row.  The product layers always write proper term
objects; mixed raw/term graphs should stay on the in-memory backend.
"""

from __future__ import annotations

import random
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.rdf.graph_index import GraphIndex, IdTriple
from repro.rdf.terms import QuotedTriple, TermDictionary, URIRef, parse_term, term_n3

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

    #: Whether ``QuadStore.replication_batch(durable=False)`` may defer this
    #: backend's durability work (see :class:`SqliteBackend`).
    supports_lazy_replication = False

    def __init__(self):
        #: The term dictionary shared by every graph of this backend.
        self.dictionary: TermDictionary = TermDictionary()
        #: Resident per-graph indexes (here: every graph).
        self._indexes: Dict[URIRef, GraphIndex] = {}
        #: Indexes created by the open batch (``None`` outside a batch).
        self._batch_created: Optional[Dict[URIRef, GraphIndex]] = None
        #: Per-graph change high-water marks (see :meth:`graph_changed`).
        self._graph_change_versions: Dict[URIRef, int] = {}
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

    def items(self) -> Iterable[Tuple[URIRef, GraphIndex]]:
        """``(name, index)`` for every graph (loads all lazily-stored graphs)."""
        return [(graph, self.get_index(graph)) for graph in self.graph_names()]

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
        if graph is not None:
            index = self.get_index(graph)
            return [index] if index is not None else []
        return [index for _, index in self.items()]

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
        """Make all buffered writes durable (no-op for volatile backends)."""

    def close(self) -> None:
        """Release any resources; the backend must not be used afterwards."""

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
        self.note_commit_version(commit_version)
        self.flush()
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

    def note_commit_version(self, commit_version: int) -> None:
        """Record the store's commit version for the next durable commit."""

    def reopen(self, changed_graphs: Optional[Iterable[URIRef]] = None) -> Dict[str, Any]:
        """Re-read durable state replaced underneath (durable backends only)."""
        raise RuntimeError(f"{type(self).__name__} does not support reopen")

    # ------------------------------------------------------- change inspection
    def graph_changed(self, graph: URIRef, version: int) -> None:
        """Record that ``graph`` is mutated by the commit at ``version``.

        The store calls this on every mutation path (with the version the
        mutation will commit as); replication uses the recorded high-water
        marks to ship only the graphs a follower is missing.  Rolled-back
        versions may stay recorded — over-reporting a change is safe (the
        follower re-pulls an identical shard), under-reporting is not.
        """
        if version > self._graph_change_versions.get(graph, 0):
            self._graph_change_versions[graph] = version

    def changed_since(self, version: int) -> List[URIRef]:
        """Graphs that may hold changes committed after ``version``.

        Never under-reports: graphs with no recorded change version are
        assumed changed at the change baseline — 0 for a fresh store, which
        has seen every mutation; the durable commit version at open for a
        reopened one, which cannot know when its pre-existing graphs last
        changed.  Dropped graphs are not listed (they are no longer in the
        catalog); followers diff the catalog itself to observe drops.
        """
        versions = self.change_versions()
        return [graph for graph, changed in versions.items() if changed > version]

    def change_versions(self) -> Dict[URIRef, int]:
        """Per-graph change high-water marks (recorded or baseline)."""
        versions, baseline = self._graph_change_versions, self._change_baseline
        return {graph: versions.get(graph, baseline) for graph in self.graph_names()}

    def shard_files(self) -> Dict[str, str]:
        """``graph name -> durable shard name`` (empty for volatile backends).

        The snapshot-shipping inspection API: tooling that copies or
        invalidates shards keys off this mapping instead of reaching into
        backend internals.
        """
        return {}


class PersistentTermDictionary(TermDictionary):
    """A :class:`TermDictionary` whose entries round-trip through sqlite.

    The backend loads the ``terms`` table eagerly as *text* (one cheap scan
    of ``id, n3`` rows) and the ``quoted`` table as integer part rows; term
    objects are parsed lazily on first decode and cached, so reopening a
    lake never re-parses terms that no query touches.  Newly assigned ids
    queue ``(id, n3)`` rows — ``(id, s, p, o)`` for a quoted triple — that
    the owning backend flushes ahead of any quad rows referencing them.

    Interning goes through the N-Triples spelling, which is what makes saved
    governors round-trip ids: the id a term had when written is the id its
    text row decodes to forever after.  A quoted triple is keyed by its part
    ids alone and has no spelling of its own.
    """

    __slots__ = ("_text_to_id", "_id_to_text", "_pending", "_pending_quoted")

    def __init__(self):
        super().__init__()
        self._text_to_id: Dict[str, int] = {}
        self._id_to_text: Dict[int, str] = {}
        self._pending: List[Tuple[int, str]] = []
        self._pending_quoted: List[Tuple[int, int, int, int]] = []

    # ---------------------------------------------------------------- loading
    def load_rows(
        self, rows: Iterable[Tuple[int, str]], quoted: Iterable[Tuple[int, int, int, int]] = ()
    ) -> None:
        """Ingest persisted ``(id, n3)`` rows (text only; no parsing) and
        ``(id, s, p, o)`` quoted rows.

        With a columnar snapshot live, each quoted registration queues an
        incremental append instead of invalidating it: replication ships
        rows through here on every applied commit, and a full rebuild per
        commit would scale with the whole dictionary rather than the delta.
        """
        last = self._next_id - 1
        for term_id, text in rows:
            self._text_to_id[text] = term_id
            self._id_to_text[term_id] = text
            last = max(last, term_id)
        for term_id, subject, predicate, obj in quoted:
            self._register_quoted(term_id, (subject, predicate, obj))
            last = max(last, term_id)
        self._next_id = last + 1

    def drain_pending(self) -> Tuple[List[Tuple[int, str]], List[Tuple[int, int, int, int]]]:
        """New term and quoted rows awaiting persistence (clears the queues)."""
        pending, self._pending = self._pending, []
        quoted, self._pending_quoted = self._pending_quoted, []
        return pending, quoted

    def export_rows(self, start: int) -> List[Tuple[int, str]]:
        """Replication rows straight from the text map — no term parsing."""
        id_to_text = self._id_to_text
        return [
            (term_id, id_to_text[term_id])
            for term_id in range(max(start, 1), self._next_id)
            if term_id in id_to_text
        ]

    def has_pending(self) -> bool:
        return bool(self._pending) or bool(self._pending_quoted)

    def rollback_to(self, mark: int) -> None:
        """Forget every term interned at or after ``mark``.

        Unlike the volatile base, several live term objects can alias one
        persisted id (``"5"`` and ``Literal("5")`` share an n3 spelling), so
        ``_term_to_id`` is filter-rebuilt rather than popped per id; pending
        rows for unwound ids are dropped so they never reach sqlite.
        """
        if mark >= self._next_id:
            # Nothing interned at or past the mark — skip the rebuild.  The
            # replica sync path rolls back before every apply, so the no-op
            # case runs once per replicated commit.
            return
        for term_id in range(mark, self._next_id):
            text = self._id_to_text.pop(term_id, None)
            if text is not None:
                self._text_to_id.pop(text, None)
            self._id_to_term.pop(term_id, None)
            parts = self._quoted_parts.pop(term_id, None)
            if parts is not None:
                self._quoted_by_parts.pop(parts, None)
        self._quoted_columns = None
        self._quoted_appends.clear()
        self._term_to_id = {
            term: term_id for term, term_id in self._term_to_id.items() if term_id < mark
        }
        self._pending = [row for row in self._pending if row[0] < mark]
        self._pending_quoted = [row for row in self._pending_quoted if row[0] < mark]
        self._next_id = mark

    def __len__(self) -> int:
        return len(self._id_to_text) + len(self._quoted_parts)

    # -------------------------------------------------------------- interning
    def _assign(self, term) -> int:
        """Intern by N-Triples spelling (the base ``encode`` drives this).

        Unlike the volatile base ``_assign``, the spelling may already hold a
        persisted id from an earlier process — reuse it and just register the
        live term object against it.
        """
        text = term_n3(term)
        term_id = self._text_to_id.get(text)
        if term_id is None:
            term_id = self._next_id
            self._next_id += 1
            self._text_to_id[text] = term_id
            self._id_to_text[term_id] = text
            self._pending.append((term_id, text))
        self._term_to_id[term] = term_id
        self._id_to_term.setdefault(term_id, term)
        return term_id

    def _assign_quoted(self, term, parts: Tuple[int, int, int]) -> int:
        term_id = super()._assign_quoted(term, parts)
        self._pending_quoted.append((term_id, *parts))
        return term_id

    # ---------------------------------------------------------------- lookups
    def lookup(self, term) -> Optional[int]:
        if isinstance(term, QuotedTriple):
            return super().lookup(term)
        term_id = self._term_to_id.get(term)
        if term_id is None:
            term_id = self._text_to_id.get(term_n3(term))
            if term_id is not None:
                self._term_to_id[term] = term_id
                self._id_to_term.setdefault(term_id, term)
        return term_id

    def decode(self, term_id: int):
        term = self._id_to_term.get(term_id)
        if term is None:
            parts = self._quoted_parts.get(term_id)
            if parts is not None:
                term = QuotedTriple(*map(self.decode, parts))
            else:
                term = parse_term(self._id_to_text[term_id])
                self._term_to_id.setdefault(term, term_id)
            self._id_to_term[term_id] = term
        return term


class SqliteBackend(QuadStoreBackend):
    """A sqlite-backed quad store with one shard table per named graph.

    Layout: a ``graphs`` catalog table maps graph names to shard ids; a
    ``terms`` dictionary table holds every distinct term once (``id``,
    N-Triples ``n3`` text) but quoted triples, which ``quoted`` holds as
    ``(id, s, p, o)`` part ids; ``meta`` holds the commit version, the
    lineage uid and the layout version; shard ``quads_<id>`` holds that
    graph's triples as three integer id columns keyed by their ``(s, p, o)``
    primary key.
    There are no secondary indexes: term uniqueness is the in-memory
    dictionary's job (terms are looked up there, never by SQL), and all
    matching runs on the shared :class:`GraphIndex`, rebuilt lazily per
    graph on first touch — a pure integer scan, no term parsing — so the
    cardinality statistics and partial quoted-triple indexes the SPARQL
    planner sees are exactly the statistics the in-memory backend would
    produce.

    Writes are buffered (insert/delete order preserved; new dictionary rows
    always land before the quad rows referencing them) and flushed once
    ``flush_threshold`` operations are waiting (checked per hook call, so
    after a whole row batch), on :meth:`flush` and on :meth:`close`.

    A loaded :class:`GraphIndex` stays resident until its graph is dropped or
    replaced underneath it (:meth:`invalidate_resident`, via
    :meth:`replace_shard`, :meth:`reopen` or a failed replica apply);
    ``shard_loads`` counts the loads for tests and benchmarks.  Per-graph
    mutation counters survive invalidation: a reloaded index resumes *above*
    the dropped index's version, so version-keyed caches (e.g. the Global
    Graph Linker's table map) never see a stale counter.

    The sqlite connection is shared across threads (created with
    ``check_same_thread=False``) and every use of it is serialized by an
    internal lock, so a background ingestion thread and reader threads can
    coexist on one backend.  Higher-level read/write *consistency* (torn
    reads, batch atomicity) is the store's gate's job — see
    ``QuadStore.read_view`` / ``QuadStore.write_batch``.
    """

    persistent = True
    #: The store's ``replication_batch(durable=False)`` fast path is only
    #: sound on backends whose buffered ops survive a deferral window and can
    #: be truncated back to a mark — i.e. this one.
    supports_lazy_replication = True

    def __init__(self, path: PathLike, flush_threshold: int = 8192):
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.flush_threshold = flush_threshold
        #: Shard loads (lazy first touches *and* post-invalidation reloads).
        self.shard_loads = 0
        #: Serializes every use of the shared sqlite connection.  The
        #: connection is created with ``check_same_thread=False`` so a
        #: governor-service scheduler thread can flush writes while readers
        #: on other threads trigger lazy shard loads; sqlite objects are
        #: not otherwise thread-safe, so all cursor work happens under this
        #: lock (reentrant: ``flush`` runs inside other locked sections).
        self._db_lock = threading.RLock()
        self._in_batch = False
        self._shards_snapshot: Optional[Dict[URIRef, int]] = None
        self._crashed = False
        self._connection = self._connect()
        self._ensure_layout()
        #: The commit version of the last durable commit (the recovery marker).
        self._durable_version = self._read_meta("commit_version")
        #: Random identity stamped into ``meta`` when the database file is
        #: created; two files share a uid only if one is a byte copy (or
        #: flush) of the other, i.e. their term-id spaces are compatible.
        #: ``reopen`` refuses to splice incremental state across lineages.
        self._uid = self._read_meta("store_uid")
        #: Graphs existing at open changed at-or-before this version (see
        #: ``changed_since``): reopening loses the in-memory change marks.
        self._change_baseline = self._durable_version
        self._noted_version: Optional[int] = None
        #: graph name -> shard id, in catalog order (deterministic reopen).
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
        #: Shipped term and quoted rows awaiting an ``INSERT OR REPLACE``
        #: flush, and the lowest id they are authoritative from — all filled
        #: only by :meth:`ingest_term_rows` (replication).
        self._pending_term_replaces: List[Tuple[int, str]] = []
        self._pending_quoted_replaces: List[Tuple[int, int, int, int]] = []
        self._term_floor: Optional[int] = None
        self._closed = False
        #: What :meth:`_recover` found and repaired on open (see that method).
        self.recovery = self._recover()
        self.dictionary = PersistentTermDictionary()
        self._load_dictionary(1)

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
        # Drawn from [2^61, 2^62): always 19 decimal digits, so manifests
        # that spell the uid out have one length whatever the draw.
        self._connection.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('store_uid', ?)",
            ((1 << 61) | random.getrandbits(61),),
        )
        # A file without the row is in layout 1 (a new one is too, with no
        # term to move yet): :meth:`_migrate_layout` brings it to today's.
        self._connection.execute("INSERT OR IGNORE INTO meta (key, value) VALUES ('layout', 1)")
        self._txn_commit()

    def _load_dictionary(self, start: int) -> None:
        """Load the persisted term and quoted rows at ids >= ``start``."""
        self.dictionary.load_rows(
            self._connection.execute("SELECT id, n3 FROM terms WHERE id >= ?", (start,)),
            self._connection.execute(
                "SELECT id, s, p, o FROM quoted WHERE id >= ?", (start,)
            ).fetchall(),
        )

    def _read_meta(self, key: str) -> int:
        return int(
            self._connection.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()[0]
        )

    @property
    def uid(self) -> int:
        """Lineage identity of the database file (stable across flushes)."""
        return self._uid

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
        # (or vice versa).  Inside a batch the DDL rides the batch
        # transaction (sqlite DDL is transactional), so a rollback removes
        # the catalog row and the shard table together.
        with self._db_lock:
            self._ensure_shard(graph)
            return super()._create_graph(graph)

    def _ensure_shard(self, graph: URIRef) -> int:
        """Create the catalog row + shard table for ``graph`` if missing.

        Caller must hold ``_db_lock``.  Returns the shard id either way.
        """
        shard_id = self._shards.get(graph)
        if shard_id is None:
            with self._autocommit():
                cursor = self._execute_retry(
                    "INSERT INTO graphs (name) VALUES (?)", (str(graph),)
                )
                shard_id = int(cursor.lastrowid)
                self._create_shard_table(shard_id)
            self._shards[graph] = shard_id
        return shard_id

    def drop_graph(self, graph: URIRef) -> bool:
        with self._db_lock:
            shard_id = self._shards.pop(graph, None)
            if shard_id is None:
                return False
            self._indexes.pop(graph, None)
            # Buffered writes against the shard are moot once the table is
            # gone; rebuilding the buffer under the lock keeps a concurrent
            # reader-triggered flush from re-running ops it already drained.
            self._pending = [op for op in self._pending if op[1] != shard_id]
            with self._autocommit():
                self._flush_term_rows()
                self._connection.execute(f"DROP TABLE IF EXISTS quads_{shard_id}")
                self._connection.execute(
                    "DELETE FROM graphs WHERE id = ?", (shard_id,)
                )
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
        with self._db_lock:
            if self._closed:
                # A crashed/closed backend buffers nothing; nothing to lose.
                return
            if not self._dirty():
                return
            if self._in_batch:
                # Ride the open batch transaction; commit_batch owns the
                # COMMIT (and the meta marker) so a mid-batch flush — e.g.
                # the buffer hitting ``flush_threshold`` — stays atomic with
                # the rest of the batch.
                self._flush_rows()
            else:
                with self._autocommit():
                    self._flush_rows()
                    self._write_meta()

    def pending_mark(self) -> Tuple[int, int, int]:
        """Write-buffer positions for :meth:`discard_pending`.

        Only meaningful while nothing between mark and discard reorders the
        buffers — ``drop_graph`` purges matching ops in place, so lazy
        replication must route deltas containing drops (or full dumps)
        through the durable batch path instead.
        """
        with self._db_lock:
            return (
                len(self._pending),
                len(self._pending_term_replaces),
                len(self._pending_quoted_replaces),
            )

    def discard_pending(self, mark: Tuple[int, int, int]) -> None:
        """Drop buffered ops and term rows queued since :meth:`pending_mark`.

        The lazy-replication failure path: a torn apply's ops vanish from
        the buffers instead of rolling back through sqlite.  If a threshold
        flush already pushed some of them out, they stay durable — harmless,
        because replication ops are idempotent and the durable meta version
        is still conservative, so the retry replays over them.  The stray
        floor stays: the strays it covers left the dictionary either way.
        """
        with self._db_lock:
            del self._pending[mark[0]:]
            del self._pending_term_replaces[mark[1]:]
            del self._pending_quoted_replaces[mark[2]:]

    def _flush_rows(self) -> None:
        """Write buffered term and quad rows (no transaction control)."""
        if self._term_floor is not None:
            # Shipped rows first, after the local strays they supersede.
            self._execute_retry("DELETE FROM terms WHERE id >= ?", (self._term_floor,))
            self._execute_retry("DELETE FROM quoted WHERE id >= ?", (self._term_floor,))
            self._term_floor = None
        rows, self._pending_term_replaces = self._pending_term_replaces, []
        quoted, self._pending_quoted_replaces = self._pending_quoted_replaces, []
        self._write_term_rows("INSERT OR REPLACE", rows, quoted)
        self._flush_term_rows()
        if self._pending:
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

    def close(self) -> None:
        with self._db_lock:
            if self._closed:
                return
            self.flush()
            self._connection.close()
            self._closed = True

    # ------------------------------------------------------------ transactions
    def begin_batch(self) -> None:
        with self._db_lock:
            # Writes buffered *before* the batch belong to earlier commits;
            # flush them in their own committed transaction first so rolling
            # this batch back cannot take them along.
            self.flush()
            super().begin_batch()
            self._shards_snapshot = dict(self._shards)
            self._txn_begin()
            self._in_batch = True

    def commit_batch(self, commit_version: int) -> None:
        with self._db_lock:
            self._noted_version = commit_version
            self._flush_rows()
            self._write_meta()
            self._txn_commit()
            self._in_batch = False
            self._batch_created = None
            self._shards_snapshot = None

    def rollback_batch(self) -> None:
        with self._db_lock:
            if not self._in_batch:
                return
            self._in_batch = False
            self._pending.clear()
            self._pending_term_replaces.clear()
            self._pending_quoted_replaces.clear()
            self._term_floor = None
            if not self._closed:
                # No transaction is open after an injected "crash" tore it
                # down; the journal rollback then happens on reopen.
                self._txn_rollback()
            super().rollback_batch()
            self._shards, self._shards_snapshot = self._shards_snapshot, None
            self._noted_version = None

    def committed_version(self) -> int:
        return self._durable_version

    def note_commit_version(self, commit_version: int) -> None:
        self._noted_version = commit_version

    # ------------------------------------------------------------- replication
    def shard_files(self) -> Dict[str, str]:
        """``graph name -> shard table name`` for snapshot shipping.

        The mapping is the inspection surface replication tooling uses
        instead of reaching into ``_shards``; shard tables all live inside
        the single database file at :attr:`path`.
        """
        with self._db_lock:
            return {
                str(graph): f"quads_{shard_id}"
                for graph, shard_id in self._shards.items()
            }

    def ingest_term_rows(
        self,
        start: int,
        rows: List[Tuple[int, str]],
        quoted: List[Tuple[int, int, int, int]] = (),
    ) -> None:
        """Adopt shipped dictionary rows, authoritative from ``start``:
        ``(id, n3)`` term rows and ``(id, s, p, o)`` quoted rows.

        Ids are assigned by the replication *source*, which ships every row
        at or above ``start``; any id there that this side holds is a local
        stray (a query constant interned between syncs).  Strays leave the
        dictionary now, and their on-disk rows are deleted by the flush that
        writes the shipped rows, just before them — inside the batch
        transaction of a durable apply, at the next checkpoint of a lazy one.
        The rows queue apart from the dictionary's own pending rows so
        :meth:`discard_pending` can cut them at a replication mark.
        """
        with self._db_lock:
            self.dictionary.rollback_to(start)
            self.dictionary.load_rows(rows, quoted)
            if self._term_floor is None or start < self._term_floor:
                self._term_floor = start
            self._pending_term_replaces.extend(rows)
            self._pending_quoted_replaces.extend(quoted)

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
            # Buffered local writes against the shard are superseded by the
            # authoritative row set.
            self._pending = [op for op in self._pending if op[1] != shard_id]
            with self._autocommit():
                self._execute_retry(f"DELETE FROM quads_{shard_id}")
                if rows:
                    self._executemany_retry(
                        self._STATEMENTS["insert"].format(shard=shard_id), rows
                    )
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

        ``KGGovernor.save`` calls this after a flush so a bare file copy of
        the database is complete without the ``-wal`` sidecar.
        """
        with self._db_lock:
            if self._closed or self._in_batch:
                return
            try:
                self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass

    def reopen(self, changed_graphs: Optional[Iterable[URIRef]] = None) -> Dict[str, Any]:
        """Re-read a database file replaced underneath this backend in place.

        The replica refresh path: after new snapshot bytes land at
        :attr:`path` (an atomic file replace), ``reopen`` picks up the new
        inode with a fresh connection and splices the new state in without
        a cold restart.  When the file shares this backend's lineage
        (``store_uid`` matches), the interned term dictionary is *reused* —
        only rows at or above its watermark are loaded — and only
        ``changed_graphs`` (``None`` = all) lose their resident indexes.  A
        foreign uid forces a full dictionary reload and drops everything
        resident.

        Requires a clean backend: nothing :meth:`flush` would write (a
        buffered stray floor would delete the new file's terms), no open
        batch.  Returns a small info dict for logging/tests.
        """
        with self._db_lock:
            if self._in_batch:
                raise RuntimeError("cannot reopen mid-batch")
            if self._dirty():
                raise RuntimeError("cannot reopen with unflushed writes")
            if not self._closed:
                try:
                    self._connection.close()
                except sqlite3.Error:
                    pass
            self._closed = False
            self._crashed = False
            self._connection = self._connect()
            self._ensure_layout()
            self._migrate_layout()
            new_uid = self._read_meta("store_uid")
            same_lineage = new_uid == self._uid
            if same_lineage:
                self._load_dictionary(self.dictionary.next_id)
                if changed_graphs is None:
                    invalidate = set(self._indexes)
                else:
                    invalidate = {URIRef(str(g)) for g in changed_graphs}
            else:
                self._uid = new_uid
                self.dictionary = PersistentTermDictionary()
                self._load_dictionary(1)
                invalidate = set(self._indexes)
            old_shards = self._shards
            self._shards = {
                URIRef(name): shard_id
                for shard_id, name in self._connection.execute(
                    "SELECT id, name FROM graphs ORDER BY id"
                )
            }
            # A graph whose shard id changed (drop + recreate) or vanished
            # is stale regardless of what the caller reported.
            for graph in list(self._indexes):
                if self._shards.get(graph) != old_shards.get(graph):
                    invalidate.add(graph)
            for graph in invalidate:
                self.invalidate_resident(graph)
            old_durable = self._durable_version
            self._durable_version = self._read_meta("commit_version")
            self._noted_version = None
            # The new file's changes are indistinguishable from baseline;
            # never move the baseline backwards (stale copies must still
            # over-report, not under-report).
            self._change_baseline = max(self._change_baseline, self._durable_version)
            return {
                "same_lineage": same_lineage,
                "invalidated": sorted(str(g) for g in invalidate),
                "durable_version": self._durable_version,
                "previous_version": old_durable,
            }

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
            self._pending_term_replaces.clear()
            self._pending_quoted_replaces.clear()
            self._term_floor = None
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
            self._closed = True
            self._crashed = True

    def _meta_dirty(self) -> bool:
        return (
            self._noted_version is not None
            and self._noted_version != self._durable_version
        )

    def _dirty(self) -> bool:
        """Whether :meth:`flush` has anything to write (caller holds the lock)."""
        return (
            bool(self._pending)
            or bool(self._pending_term_replaces)
            or bool(self._pending_quoted_replaces)
            or self._term_floor is not None
            or self.dictionary.has_pending()
            or self._meta_dirty()
        )

    def _write_meta(self) -> None:
        """Stamp the commit-version marker (inside the caller's transaction)."""
        if not self._meta_dirty():
            return
        self._connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'commit_version'",
            (self._noted_version,),
        )
        self._durable_version = self._noted_version

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
        delay = self.lock_retry_delay
        for attempt in range(self.lock_retries):
            try:
                return self._connection.execute(sql, params)
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == self.lock_retries - 1:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 0.25)
        raise AssertionError("unreachable")

    def _executemany_retry(self, sql: str, rows: List[Tuple]) -> sqlite3.Cursor:
        delay = self.lock_retry_delay
        for attempt in range(self.lock_retries):
            try:
                return self._connection.executemany(sql, rows)
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == self.lock_retries - 1:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 0.25)
        raise AssertionError("unreachable")

    @contextmanager
    def _autocommit(self):
        """One explicit transaction — unless a batch transaction is open.

        Inside a batch the statements simply ride the batch's transaction
        (committed or rolled back wholesale by ``commit_batch`` /
        ``rollback_batch``); outside one they get their own journaled
        BEGIN IMMEDIATE / COMMIT.
        """
        if self._in_batch:
            yield
            return
        self._txn_begin()
        try:
            yield
        except BaseException:
            self._txn_rollback()
            raise
        else:
            self._txn_commit()

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
            with self._db_lock, self._autocommit():
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
        with self._db_lock, self._autocommit():
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
            self._write_term_rows("INSERT", [], rows)
            self._executemany_retry("DELETE FROM terms WHERE id = ?", [row[:1] for row in rows])
            self._execute_retry("UPDATE meta SET value = ? WHERE key = 'layout'", (self._LAYOUT,))
        return len(rows)

    # -------------------------------------------------------------- internals
    _STATEMENTS = {
        "insert": "INSERT OR IGNORE INTO quads_{shard} (s, p, o) VALUES (?, ?, ?)",
        "delete": "DELETE FROM quads_{shard} WHERE s = ? AND p = ? AND o = ?",
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

    def _flush_term_rows(self) -> None:
        """Persist newly interned dictionary rows (always ahead of quad rows).

        No transaction control: the caller owns the commit boundary."""
        with self._db_lock:
            self._write_term_rows("INSERT OR IGNORE", *self.dictionary.drain_pending())

    def _write_term_rows(self, verb: str, rows: List[Tuple], quoted: List[Tuple]) -> None:
        if rows:
            self._executemany_retry(f"{verb} INTO terms (id, n3) VALUES (?, ?)", rows)
        if quoted:
            self._executemany_retry(f"{verb} INTO quoted (id, s, p, o) VALUES (?, ?, ?, ?)", quoted)

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
