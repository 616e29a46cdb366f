"""Pluggable quad-store backends: where the LiDS graph's quads live durably.

:class:`QuadStore` delegates all graph management to a
:class:`QuadStoreBackend`.  Every backend owns one shared
:class:`~repro.rdf.terms.TermDictionary` (term <-> integer-id interning) and
hands out the same id-keyed :class:`~repro.rdf.graph_index.GraphIndex`
structure for matching, so pattern semantics, cardinality statistics and
therefore SPARQL ``explain()`` plans are identical across backends — backends
differ only in durability:

* :class:`InMemoryBackend` — the seed behaviour: graphs live in a plain dict
  and die with the process.
* :class:`SqliteBackend` — terms are persisted once in a ``terms`` dictionary
  table and quads are sharded into one sqlite table of integer id-triples per
  named graph (the LiDS layout: one graph per pipeline plus the dataset /
  library / ontology graphs).  Writes are buffered and flushed in batches; on
  open, the term dictionary's text is loaded eagerly (terms parse lazily on
  first decode) while a graph's index — per-predicate statistics and partial
  quoted-triple indexes included — is rebuilt lazily the first time the graph
  is touched, so reopening a governed lake never pays for graphs a query does
  not read.  A loaded index stays resident until its graph is dropped or
  replaced underneath it (``replace_shard``, ``reopen``).

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
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.rdf.graph_index import GraphIndex, IdTriple
from repro.rdf.terms import QuotedTriple, TermDictionary, URIRef, parse_term, term_n3

PathLike = Union[str, Path]


class QuadStoreBackend(ABC):
    """Storage backend protocol behind :class:`~repro.rdf.store.QuadStore`.

    The reader side hands out :class:`GraphIndex` objects (``get_index`` /
    ``ensure_index`` / ``items``) that share the backend's ``dictionary``;
    the writer side receives persistence hooks *after* the in-memory index
    has been updated (``quads_added`` etc., all id-encoded, one call per
    row batch), so a non-durable backend can ignore them entirely.
    """

    #: Whether this backend survives process restarts.
    persistent: bool = False

    #: The term dictionary shared by every graph of this backend.
    dictionary: TermDictionary

    # ----------------------------------------------------------------- graphs
    @abstractmethod
    def graph_names(self) -> List[URIRef]:
        """Names of all graphs currently holding triples (no index loads)."""

    @abstractmethod
    def get_index(self, graph: URIRef) -> Optional[GraphIndex]:
        """The graph's index, loading it if necessary; ``None`` when absent."""

    @abstractmethod
    def ensure_index(self, graph: URIRef) -> GraphIndex:
        """The graph's index, creating the graph when absent."""

    @abstractmethod
    def drop_graph(self, graph: URIRef) -> bool:
        """Drop a whole named graph (a backend-level retraction primitive)."""

    @abstractmethod
    def items(self) -> Iterable[Tuple[URIRef, GraphIndex]]:
        """``(name, index)`` for every graph (loads all lazily-stored graphs)."""

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
        The default implementation only marks the term dictionary so an
        aborted batch cannot leak interned ids (which would change the ids —
        and therefore the durable byte layout — of later terms).
        """
        self._dictionary_mark = self.dictionary.mark()

    def commit_batch(self, commit_version: int) -> None:
        """Make the open batch durable, stamped with ``commit_version``."""
        self.note_commit_version(commit_version)
        self.flush()

    def rollback_batch(self) -> None:
        """Discard the open batch's durable writes and dictionary entries.

        The store has already replayed its undo log against the resident
        indexes; this only unwinds backend-owned state (buffered rows, the
        sqlite transaction, terms interned during the batch).
        """
        self.dictionary.rollback_to(self._dictionary_mark)

    def resident_index(self, graph: URIRef) -> Optional[GraphIndex]:
        """The graph's index only if it is already in memory (no load).

        Undo replay targets exactly the state a failed batch touched: an
        index invalidated (or never loaded) during the batch is rebuilt from
        durable storage on next touch, which the backend rollback already
        restored — replaying into a fresh load would double-revert.
        """
        return self.get_index(graph)

    def drop_graph_for_undo(self, graph: URIRef) -> Optional[Any]:
        """Drop a graph, returning an opaque token that can restore it.

        ``None`` means the graph did not exist (nothing to undo).  The token
        is only valid within the current batch, passed to
        :meth:`restore_graph` during rollback.
        """
        raise NotImplementedError

    def restore_graph(self, graph: URIRef, token: Any) -> None:
        """Reinstate a graph dropped via :meth:`drop_graph_for_undo`."""
        raise NotImplementedError

    def committed_version(self) -> int:
        """The last durably committed commit version (0 for volatile stores)."""
        return 0

    def note_commit_version(self, commit_version: int) -> None:
        """Record the store's commit version for the next durable commit."""

    # ------------------------------------------------------- change inspection
    def graph_changed(self, graph: URIRef, version: int) -> None:
        """Record that ``graph`` is mutated by the commit at ``version``.

        The store calls this on every mutation path (with the version the
        mutation will commit as); replication uses the recorded high-water
        marks to ship only the graphs a follower is missing.  Rolled-back
        versions may stay recorded — over-reporting a change is safe (the
        follower re-pulls an identical shard), under-reporting is not.
        """
        versions = getattr(self, "_graph_change_versions", None)
        if versions is None:
            versions = self._graph_change_versions = {}
        previous = versions.get(graph, 0)
        if version > previous:
            versions[graph] = version

    def change_baseline(self) -> int:
        """Versions at or below this may hide changes (see :meth:`changed_since`).

        A freshly created volatile store has seen every mutation, so its
        baseline is 0; a durable backend reopened from disk cannot know when
        its pre-existing graphs last changed, so its baseline is the durable
        commit version at open — ``changed_since`` conservatively reports
        every pre-existing graph to followers older than that.
        """
        return 0

    def changed_since(self, version: int) -> List[URIRef]:
        """Graphs that may hold changes committed after ``version``.

        Never under-reports: graphs with no recorded change version are
        assumed changed at :meth:`change_baseline`.  Dropped graphs are not
        listed (they are no longer in the catalog); followers diff the
        catalog itself to observe drops.
        """
        versions = getattr(self, "_graph_change_versions", {})
        baseline = self.change_baseline()
        return [
            graph
            for graph in self.graph_names()
            if versions.get(graph, baseline) > version
        ]

    def change_versions(self) -> Dict[URIRef, int]:
        """Per-graph change high-water marks (recorded or baseline)."""
        versions = getattr(self, "_graph_change_versions", {})
        baseline = self.change_baseline()
        return {
            graph: versions.get(graph, baseline) for graph in self.graph_names()
        }

    def shard_files(self) -> Dict[str, str]:
        """``graph name -> durable shard name`` (empty for volatile backends).

        The snapshot-shipping inspection API: tooling that copies or
        invalidates shards keys off this mapping instead of reaching into
        backend internals.
        """
        return {}


class InMemoryBackend(QuadStoreBackend):
    """The seed storage: a dict of :class:`GraphIndex` per named graph."""

    persistent = False

    def __init__(self):
        self.dictionary = TermDictionary()
        self._graphs: Dict[URIRef, GraphIndex] = {}
        self._batch_created: Optional[Dict[URIRef, GraphIndex]] = None

    def graph_names(self) -> List[URIRef]:
        return list(self._graphs.keys())

    def get_index(self, graph: URIRef) -> Optional[GraphIndex]:
        return self._graphs.get(graph)

    def ensure_index(self, graph: URIRef) -> GraphIndex:
        index = self._graphs.get(graph)
        if index is None:
            index = self._graphs[graph] = GraphIndex(self.dictionary)
            if self._batch_created is not None:
                self._batch_created.setdefault(graph, index)
        return index

    def drop_graph(self, graph: URIRef) -> bool:
        return self._graphs.pop(graph, None) is not None

    def items(self) -> Iterable[Tuple[URIRef, GraphIndex]]:
        return list(self._graphs.items())

    # ------------------------------------------------------------ transactions
    def begin_batch(self) -> None:
        super().begin_batch()
        self._batch_created = {}

    def commit_batch(self, commit_version: int) -> None:
        self._batch_created = None
        super().commit_batch(commit_version)

    def rollback_batch(self) -> None:
        created, self._batch_created = self._batch_created, None
        for graph, index in (created or {}).items():
            # Identity guard: a graph dropped and re-created during the batch
            # may by now hold a *restored* pre-batch index (undo replay runs
            # before this) — only discard the index this batch created.
            if self._graphs.get(graph) is index:
                del self._graphs[graph]
        super().rollback_batch()

    def drop_graph_for_undo(self, graph: URIRef) -> Optional[GraphIndex]:
        return self._graphs.pop(graph, None)

    def restore_graph(self, graph: URIRef, token: GraphIndex) -> None:
        self._graphs[graph] = token


class PersistentTermDictionary(TermDictionary):
    """A :class:`TermDictionary` whose entries round-trip through sqlite.

    The backend loads the ``terms`` table eagerly as *text* (one cheap scan
    of ``id, n3`` rows); term objects are parsed lazily on first decode and
    cached, so reopening a lake never re-parses terms that no query touches.
    Newly assigned ids queue ``(id, n3)`` rows that the owning backend
    flushes ahead of any quad rows referencing them.

    Interning goes through the N-Triples spelling, which is what makes saved
    governors round-trip ids: the id a term had when written is the id its
    text row decodes to forever after.
    """

    __slots__ = ("_text_to_id", "_id_to_text", "_pending")

    def __init__(self):
        super().__init__()
        self._text_to_id: Dict[str, int] = {}
        self._id_to_text: Dict[int, str] = {}
        self._pending: List[Tuple[int, str]] = []

    # ---------------------------------------------------------------- loading
    def load_rows(self, rows: Iterable[Tuple[int, str]]) -> None:
        """Ingest persisted ``(id, n3)`` rows (text only; no parsing)."""
        quoted: List[int] = []
        for term_id, text in rows:
            self._text_to_id[text] = term_id
            self._id_to_text[term_id] = text
            if term_id >= self._next_id:
                self._next_id = term_id + 1
            if text.startswith("<<"):
                quoted.append(term_id)
        if quoted and self._quoted_columns is not None:
            # A columnar snapshot is live: register the incoming quoted rows
            # now — each registration queues an incremental append — instead
            # of invalidating the snapshot.  Replication ships terms through
            # here on every applied commit, and a full rebuild per commit
            # would scale with the whole dictionary rather than the delta.
            # Registration runs after the loop so inner-part texts arriving
            # in the same batch are probeable.
            for term_id in quoted:
                self.quoted_parts(term_id)

    def drain_pending(self) -> List[Tuple[int, str]]:
        """New ``(id, n3)`` rows awaiting persistence (clears the queue)."""
        pending, self._pending = self._pending, []
        return pending

    def export_rows(self, start: int) -> List[Tuple[int, str]]:
        """Replication rows straight from the text map — no term parsing."""
        id_to_text = self._id_to_text
        return [
            (term_id, id_to_text[term_id])
            for term_id in range(max(start, 1), self._next_id)
            if term_id in id_to_text
        ]

    def has_pending(self) -> bool:
        return bool(self._pending)

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
        self._pending = [(term_id, text) for term_id, text in self._pending if term_id < mark]
        self._next_id = mark

    def __len__(self) -> int:
        return len(self._id_to_text)

    # -------------------------------------------------------------- interning
    def _assign(self, term) -> int:
        """Intern by N-Triples spelling (the base ``encode`` drives this;
        quoted triples come through :meth:`_assign_quoted` instead).

        Unlike the volatile base ``_assign``, the spelling may already hold a
        persisted id from an earlier process — reuse it and just register the
        live term object against it.
        """
        term_id = self._intern_text(term_n3(term))
        self._term_to_id[term] = term_id
        self._id_to_term.setdefault(term_id, term)
        return term_id

    def _assign_quoted(self, term, parts: Tuple[int, int, int]) -> int:
        """Intern a quoted triple from its parts' stored spellings.

        The canonical ``<< s p o >>`` text is the three inner spellings
        joined by single spaces, so it is assembled from rows this dictionary
        already holds instead of re-serializing the term object; the object
        itself is parsed back from that text on first decode, like any
        persisted term.
        """
        return self._intern_text(self._quoted_spelling(parts))

    def _quoted_spelling(self, parts: Tuple[int, int, int]) -> str:
        spelling = self._spelling
        return f"<< {spelling(parts[0])} {spelling(parts[1])} {spelling(parts[2])} >>"

    def _intern_text(self, text: str) -> int:
        term_id = self._text_to_id.get(text)
        if term_id is None:
            term_id = self._next_id
            self._next_id += 1
            self._text_to_id[text] = term_id
            self._id_to_text[term_id] = text
            self._pending.append((term_id, text))
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
            term = parse_term(self._id_to_text[term_id])
            self._id_to_term[term_id] = term
            self._term_to_id.setdefault(term, term_id)
        return term

    def quoted_parts(self, term_id: int) -> Optional[Tuple[int, int, int]]:
        parts = self._quoted_parts.get(term_id)
        if parts is None:
            text = self._id_to_text.get(term_id)
            if text is None or not text.startswith("<<"):
                return None
            parts = self._split_quoted(text)
            if parts is None:
                quoted = self.decode(term_id)
                parts = (
                    self.encode(quoted.subject),
                    self.encode(quoted.predicate),
                    self.encode(quoted.object),
                )
            self._register_quoted(term_id, parts)
        return parts

    def _split_quoted(self, text: str) -> Optional[Tuple[int, int, int]]:
        """Inner part ids straight from the canonical ``<< s p o >>`` spelling.

        Index loads call :meth:`quoted_parts` once per annotation subject, so
        the full parse + re-encode round trip (term object construction plus
        three ``term_n3`` serializations) dominates cold shard rebuilds.  The
        canonical spelling joins the three inner spellings with single
        spaces, so when no token can itself contain a space — no literal
        (``"``) and no nested quoted triple (``<<``) — splitting and probing
        the text map yields the same ids the parse would.  Anything fancier
        falls back to the parser.
        """
        if not text.endswith(" >>") or not text.startswith("<< "):
            return None
        inner = text[3:-3]
        if '"' in inner or "<<" in inner:
            return None
        tokens = inner.split(" ")
        if len(tokens) != 3:
            return None
        text_to_id = self._text_to_id
        subject = text_to_id.get(tokens[0])
        predicate = text_to_id.get(tokens[1])
        obj = text_to_id.get(tokens[2])
        if subject is None or predicate is None or obj is None:
            return None
        return (subject, predicate, obj)

    def quoted_id(self, parts: Tuple[int, int, int]) -> Optional[int]:
        term_id = self._quoted_by_parts.get(parts)
        if term_id is None:
            # Reconstruct the persisted spelling from the part ids; a hit
            # registers the quoted maps so the next probe is one dict get.
            term_id = self._text_to_id.get(self._quoted_spelling(parts))
            if term_id is not None:
                self._register_quoted(term_id, parts)
        return term_id

    def _materialize_quoted(self) -> None:
        """Decode every persisted-but-untouched quoted spelling so the
        columnar snapshot covers the full quoted population (the maps here
        fill lazily, one id per :meth:`quoted_parts` probe)."""
        quoted_parts = self._quoted_parts
        pending = [
            term_id
            for term_id, text in self._id_to_text.items()
            if text.startswith("<<") and term_id not in quoted_parts
        ]
        for term_id in pending:
            self.quoted_parts(term_id)

    def _spelling(self, term_id: int) -> str:
        text = self._id_to_text.get(term_id)
        return text if text is not None else term_n3(self.decode(term_id))


class SqliteBackend(QuadStoreBackend):
    """A sqlite-backed quad store with one shard table per named graph.

    Layout: a ``graphs`` catalog table maps graph names to shard ids; a
    ``terms`` dictionary table holds every distinct term once (``id``,
    N-Triples ``n3`` text); shard ``quads_<id>`` holds that graph's triples
    as three integer id columns keyed by their ``(s, p, o)`` primary key.
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
        self._batch_created: Dict[URIRef, int] = {}
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
        #: ``change_baseline``): reopening loses the in-memory change marks.
        self._change_baseline = self._durable_version
        self._noted_version: Optional[int] = None
        self.dictionary = PersistentTermDictionary()
        self.dictionary.load_rows(self._connection.execute("SELECT id, n3 FROM terms"))
        #: graph name -> shard id, in catalog order (deterministic reopen).
        self._shards: Dict[URIRef, int] = {
            URIRef(name): shard_id
            for shard_id, name in self._connection.execute(
                "SELECT id, name FROM graphs ORDER BY id"
            )
        }
        #: Resident per-graph indexes.
        self._indexes: Dict[URIRef, GraphIndex] = {}
        #: Version offset carried across invalidations, per graph (monotonicity).
        self._version_base: Dict[URIRef, int] = {}
        #: Ordered write buffer: ``(op, shard_id, params)``.
        self._pending: List[Tuple[str, int, Tuple[int, ...]]] = []
        #: Shipped term rows awaiting an ``INSERT OR REPLACE`` flush, and the
        #: lowest id they are authoritative from — both filled only by
        #: :meth:`ingest_term_rows` (replication).
        self._pending_term_replaces: List[Tuple[int, str]] = []
        self._term_floor: Optional[int] = None
        self._closed = False
        #: What :meth:`_recover` found and repaired on open (see that method).
        self.recovery: Dict[str, Any] = self._recover()

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
            "CREATE TABLE IF NOT EXISTS meta ("
            " key TEXT PRIMARY KEY,"
            " value INTEGER NOT NULL)"
        )
        self._connection.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('commit_version', 0)"
        )
        self._connection.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('store_uid', ?)",
            (random.getrandbits(62) or 1,),
        )
        self._txn_commit()

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

    def change_baseline(self) -> int:
        return self._change_baseline

    # ----------------------------------------------------------------- graphs
    def graph_names(self) -> List[URIRef]:
        return list(self._shards.keys())

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

    def ensure_index(self, graph: URIRef) -> GraphIndex:
        index = self.get_index(graph)
        if index is None:
            # Publish the catalog/index entries under the same lock as the
            # DDL so a concurrent reader can never see the shard id without
            # its table (or vice versa).  Inside a batch the DDL rides the
            # batch transaction (sqlite DDL is transactional), so a rollback
            # removes the catalog row and the shard table together.
            with self._db_lock:
                self._ensure_shard(graph)
                index = self._indexes[graph] = GraphIndex(self.dictionary)
        return index

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
            if self._in_batch:
                self._batch_created[graph] = shard_id
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

    def items(self) -> Iterable[Tuple[URIRef, GraphIndex]]:
        """All ``(name, index)`` pairs — a full-store scan (loads every shard)."""
        return [(graph, self.get_index(graph)) for graph in self.graph_names()]

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

    def pending_mark(self) -> Tuple[int, int]:
        """Write-buffer positions for :meth:`discard_pending`.

        Only meaningful while nothing between mark and discard reorders the
        buffers — ``drop_graph`` purges matching ops in place, so lazy
        replication must route deltas containing drops (or full dumps)
        through the durable batch path instead.
        """
        with self._db_lock:
            return (len(self._pending), len(self._pending_term_replaces))

    def discard_pending(self, mark: Tuple[int, int]) -> None:
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

    def _flush_rows(self) -> None:
        """Write buffered term and quad rows (no transaction control)."""
        if self._term_floor is not None:
            # Shipped rows first, after the local strays they supersede.
            self._execute_retry("DELETE FROM terms WHERE id >= ?", (self._term_floor,))
            self._term_floor = None
        if self._pending_term_replaces:
            rows, self._pending_term_replaces = self._pending_term_replaces, []
            self._executemany_retry(
                "INSERT OR REPLACE INTO terms (id, n3) VALUES (?, ?)", rows
            )
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
            self._batch_created = {}
            self._txn_begin()
            self._in_batch = True

    def commit_batch(self, commit_version: int) -> None:
        with self._db_lock:
            self._noted_version = commit_version
            self._flush_rows()
            self._write_meta()
            self._txn_commit()
            self._in_batch = False
            self._batch_created = {}
            self._shards_snapshot = None

    def rollback_batch(self) -> None:
        with self._db_lock:
            if not self._in_batch:
                return
            self._in_batch = False
            self._pending.clear()
            self._pending_term_replaces.clear()
            self._term_floor = None
            self.dictionary.rollback_to(self._dictionary_mark)
            if not self._closed:
                try:
                    self._connection.execute("ROLLBACK")
                except sqlite3.OperationalError:
                    # No transaction open — an injected "crash" already tore
                    # it down; the journal rollback happens on reopen.
                    pass
            for graph in self._batch_created:
                # Discard indexes of graphs created by the aborted batch —
                # unless the graph pre-existed (drop-then-recreate), in which
                # case undo replay restored the pre-batch index and it must
                # stay resident.
                if self._shards_snapshot is None or graph not in self._shards_snapshot:
                    self._indexes.pop(graph, None)
            if self._shards_snapshot is not None:
                self._shards = dict(self._shards_snapshot)
            self._batch_created = {}
            self._shards_snapshot = None
            self._noted_version = None

    def resident_index(self, graph: URIRef) -> Optional[GraphIndex]:
        return self._indexes.get(graph)

    def drop_graph_for_undo(self, graph: URIRef) -> Optional[Tuple[int, Optional[GraphIndex]]]:
        with self._db_lock:
            shard_id = self._shards.get(graph)
            if shard_id is None:
                return None
            index = self._indexes.get(graph)
            self.drop_graph(graph)
            return (shard_id, index)

    def restore_graph(self, graph: URIRef, token: Tuple[int, Optional[GraphIndex]]) -> None:
        shard_id, index = token
        with self._db_lock:
            # The sqlite ROLLBACK resurrects the shard table and catalog row;
            # only the in-memory mappings need reinstating here.
            self._shards[graph] = shard_id
            if index is not None:
                self._indexes[graph] = index

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

    def ingest_term_rows(self, start: int, rows: List[Tuple[int, str]]) -> None:
        """Adopt shipped dictionary rows ``(id, n3)``, authoritative from ``start``.

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
            self.dictionary.load_rows(rows)
            if self._term_floor is None or start < self._term_floor:
                self._term_floor = start
            self._pending_term_replaces.extend(rows)

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
            new_uid = self._read_meta("store_uid")
            same_lineage = new_uid == self._uid
            if same_lineage:
                self.dictionary.load_rows(
                    self._connection.execute(
                        "SELECT id, n3 FROM terms WHERE id >= ?",
                        (self.dictionary.next_id,),
                    )
                )
                if changed_graphs is None:
                    invalidate = set(self._indexes)
                else:
                    invalidate = {URIRef(str(g)) for g in changed_graphs}
            else:
                self._uid = new_uid
                self.dictionary = PersistentTermDictionary()
                self.dictionary.load_rows(
                    self._connection.execute("SELECT id, n3 FROM terms")
                )
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
        """Verify the on-disk layout against the committed marker on open.

        With journaled transactions a crash cannot tear a commit, but a
        database written by older code (or meddled with externally) may hold
        catalog rows without shard tables or orphan shard tables without
        catalog rows.  Both are discarded — the catalog is the source of
        truth for what the last commit contained.
        """
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
        }

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

    def _flush_term_rows(self) -> bool:
        """Persist newly interned dictionary rows (always ahead of quad rows).

        No transaction control: the caller owns the commit boundary."""
        with self._db_lock:
            rows = self.dictionary.drain_pending()
            if not rows:
                return False
            self._executemany_retry(
                "INSERT OR IGNORE INTO terms (id, n3) VALUES (?, ?)", rows
            )
        return True

    def _queue_rows(self, op: str, shard_id: int, rows: Iterable[Tuple[int, ...]]) -> None:
        self._pending.extend([(op, shard_id, params) for params in rows])
        if len(self._pending) >= self.flush_threshold:
            self.flush()

    def _load_shard(self, graph: URIRef, shard_id: int) -> GraphIndex:
        """Rebuild a graph's index (stats and quoted indexes included) from disk.

        A pure integer scan: the shard rows are already id-triples, and the
        quoted-triple structure comes from the shared dictionary (parsed
        lazily, only for ids whose text is a quoted term).
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
