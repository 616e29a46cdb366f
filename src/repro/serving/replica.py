"""Read replicas: a shipped snapshot kept fresh by delta pulls.

:class:`Replica` owns one snapshot directory (a file copy of the writer's
``KGGovernor.save`` output), opens it read-only, and converges on the
writer by pulling ``delta`` RPCs: the writer answers with new dictionary
rows plus either per-commit row ops or full dumps of the changed graphs,
and the replica applies them in one ``replication_batch`` — its commit
version *jumps* to the writer's, in-flight local readers finish on the old
snapshot first, and a failed apply rolls the whole pull back.

:class:`ReplicaServer` serves the replica over the wire protocol on a
deliberately **single-threaded** event loop (redis-style): one replica
process is one serving slot, and read throughput scales by adding
replicas, not threads.  The loop enforces a *freshness lease* — before
handling a request (and on idle ticks) it syncs if the last sync is older
than ``lease`` seconds.  With ``lease=0`` every request is served at the
writer's current version; the sync round-trip is the stall that other
replicas overlap, which is exactly where the serving benchmark's read
scaling comes from on a single core.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.interfaces.api import LiDSClient
from repro.kg.governor import _GRAPH_FILE, KGGovernor
from repro.rdf.store import QuadStore
from repro.rdf.terms import URIRef
from repro.serving.client import RemoteLiDSClient
from repro.serving.protocol import ProtocolError, recv_frame, send_frame, unpack_ids
from repro.serving.server import RequestDispatcher

Address = Tuple[str, int]


class Replica:
    """One read-only copy of the lake, refreshed by delta pulls."""

    def __init__(
        self,
        source_address: Address,
        directory: Union[str, Path],
        timeout: float = 30.0,
        max_retries: int = 5,
        durable_applies: bool = True,
    ):
        self.directory = Path(directory)
        self._store = QuadStore.sqlite(self.directory / _GRAPH_FILE)
        #: ``False`` turns on lazy-durability applies: delta ops patch the
        #: resident indexes and queue in the backend's write buffer, but the
        #: sqlite flush (and the durable version stamp) waits for an explicit
        #: :meth:`checkpoint`.  Sound because the durable version stays
        #: conservative and delta ops are idempotent — a crashed replica
        #: restarts at its last checkpoint and replays forward — and it moves
        #: per-commit durability work out of the serving window, which is the
        #: point: a serving slot's loss story is "re-pull", not "fsync".
        self._durable_applies = (
            durable_applies or not self._store.backend.supports_lazy_replication
        )
        if not self._durable_applies:
            # Threshold flushes mid-apply would make a torn apply partially
            # durable (still safe, but noisier); with checkpoints owning the
            # flush, the threshold only bounds memory.
            self._store.backend.flush_threshold = 1_000_000
        #: Dictionary-id watermark: every id below it matches the writer's
        #: dictionary byte-for-byte.  Ids at or above it are local strays
        #: (query constants interned between syncs); each apply drops them,
        #: flushed rows included, so shipped rows land at their own ids.
        self._synced_terms = self._store.dictionary.next_id
        #: Replication telemetry, reported via the ``stats`` RPC.  The
        #: ``*_seconds`` entries split a sync's cost into the round-trip
        #: against the writer (gate waits show up there) and the local
        #: delta apply — the two knobs that bound a replica's freshness.
        self.stats: Dict[str, float] = {
            "syncs": 0,
            "noops": 0,
            "delta_pulls": 0,
            "full_pulls": 0,
            "rows_applied": 0,
            "terms_applied": 0,
            "sync_failures": 0,
            "source_version": 0,
            "pull_seconds": 0.0,
            "apply_seconds": 0.0,
        }
        self._source = RemoteLiDSClient(
            source_address,
            timeout=timeout,
            pool_size=1,
            max_retries=max_retries,
        )
        self._sync_lock = threading.Lock()
        # Converge on the writer *before* the governor constructs: the
        # governor's ontology bootstrap interns terms when the ontology
        # graph is missing, and any locally-minted id would collide with
        # the writer's id space.
        self.sync()
        governor = KGGovernor.open(self.directory, graph=self._store)
        governor.read_only = True
        #: The in-process read surface local queries are answered from.
        self.client = LiDSClient(governor)

    @property
    def store(self) -> QuadStore:
        return self._store

    @property
    def commit_version(self) -> int:
        """The writer commit version this replica's snapshot is pinned at."""
        return self._store.commit_version

    @property
    def replication_lag(self) -> int:
        """Versions behind the writer, as of the last sync round-trip."""
        return max(0, self.stats["source_version"] - self.commit_version)

    def sync(self) -> bool:
        """One freshness round-trip; returns whether anything was applied."""
        with self._sync_lock:
            started = time.perf_counter()
            payload = self._source.delta(self._store.commit_version, self._synced_terms)
            self.stats["pull_seconds"] += time.perf_counter() - started
            self.stats["syncs"] += 1
            self.stats["source_version"] = int(payload["version"])
            if not payload["changed"]:
                self.stats["noops"] += 1
                return False
            started = time.perf_counter()
            try:
                self._apply(payload)
            except BaseException:
                self.stats["sync_failures"] += 1
                raise
            finally:
                self.stats["apply_seconds"] += time.perf_counter() - started
            return True

    # ``refresh`` is the operator-facing spelling of one sync.
    refresh = sync

    def _apply(self, payload: Dict[str, Any]) -> None:
        store = self._store
        backend = store.backend
        version = int(payload["version"])
        touched: List[URIRef] = []
        # Lazy applies only for pure row-op deltas: full dumps and drops go
        # through ``drop_graph``, whose buffer purge invalidates the pending
        # mark the lazy failure path truncates to.
        durable = (
            self._durable_applies
            or payload["full"]
            or any(kind == "drop" for kind, _, _ in payload["ops"])
        )
        try:
            with store.replication_batch(version, durable=durable):
                # The writer's rows replace every local stray (see
                # ``_synced_terms``), in memory and on disk — inside the
                # batch, so a failed apply restores the dictionary too.
                raw_terms = payload["terms"]
                if isinstance(raw_terms, dict):
                    ids = unpack_ids(raw_terms["ids"])
                    terms = list(zip(ids, raw_terms["texts"].split("\n"))) if ids else []
                else:
                    terms = [(term_id, text) for term_id, text in raw_terms]
                backend.ingest_term_rows(self._synced_terms, terms)
                self.stats["terms_applied"] += len(terms)
                quoted = payload.get("quoted")
                if quoted:
                    # The writer's quoted-part table rides along so the
                    # apply never re-parses ``<< s p o >>`` spellings.
                    parts = iter(unpack_ids(quoted))
                    store.dictionary.register_quoted_rows(
                        zip(parts, parts, parts, parts)
                    )
                if payload["full"]:
                    self.stats["full_pulls"] += 1
                    keep = {URIRef(name) for name in payload["all_graphs"]}
                    for graph in list(store.graphs()):
                        if graph not in keep:
                            backend.drop_graph(graph)
                    for name, flat in payload["graphs"].items():
                        graph = URIRef(name)
                        touched.append(graph)
                        rows = _unflatten(flat)
                        backend.replace_shard(graph, rows)
                        self.stats["rows_applied"] += len(rows)
                else:
                    self.stats["delta_pulls"] += 1
                    for kind, name, flat in payload["ops"]:
                        graph = URIRef(name)
                        touched.append(graph)
                        if kind == "drop":
                            backend.drop_graph(graph)
                            continue
                        rows = _unflatten(flat)
                        if kind == "add":
                            backend.apply_row_delta(graph, rows, [])
                        else:
                            backend.apply_row_delta(graph, [], rows)
                        self.stats["rows_applied"] += len(rows)
                for graph in touched:
                    backend.graph_changed(graph, version)
        except BaseException:
            # Resident indexes were patched in place with no undo log;
            # durable state rolled back, so force lazy rebuilds from it.
            for graph in touched:
                backend.invalidate_resident(graph)
            raise
        self._synced_terms = store.dictionary.next_id

    def checkpoint(self) -> None:
        """Make every lazily-applied delta durable in one sqlite commit."""
        with self._sync_lock:
            self._store.checkpoint()

    def close(self) -> None:
        self._source.close()
        # Closing the store flushes the write buffer and stamps the current
        # commit version, so a graceful shutdown is itself a checkpoint.
        self.client.close()


def _unflatten(flat: Any) -> List[Tuple[int, int, int]]:
    # Packed runs decode at C speed (base64 + frombuffer + tolist gives
    # plain Python ints — sqlite bindings require them); the shared
    # iterator zipped three-wide then builds the row tuples in C.  This
    # runs over six-digit id runs on every delta apply.
    ids = iter(unpack_ids(flat))
    return list(zip(ids, ids, ids))


class ReplicaServer:
    """Serve one :class:`Replica` on a single-threaded event loop.

    One thread, one request at a time: the replica process is a serving
    *slot*, so scaling reads means adding replicas (the benchmark's whole
    premise), and no torn state is ever visible because queries and syncs
    interleave, never overlap.  ``lease`` is the freshness budget: a
    request is answered at a snapshot no older than ``lease`` seconds of
    writer history (0 = sync before every request).
    """

    def __init__(
        self,
        replica: Replica,
        host: str = "127.0.0.1",
        port: int = 0,
        lease: float = 0.05,
        idle_resync: float = 0.25,
        checkpoint_after: float = 1.0,
    ):
        self.replica = replica
        self.lease = lease
        #: Quiet period (seconds since the last request) after which idle
        #: ticks flush lazily-applied deltas to sqlite.  Durability work thus
        #: runs between request bursts instead of inside them; a crash before
        #: the checkpoint only costs a re-pull on restart.
        self.checkpoint_after = checkpoint_after
        #: Idle convergence cadence.  The request path syncs on ``lease``;
        #: idle ticks sync on this much slower clock — enough for a drained
        #: writer's final version to land here, without a ``lease=0``
        #: replica burning the writer with a sync per 10 ms tick when no
        #: client is asking for fresh answers.
        self.idle_resync = max(lease, idle_resync)
        self.dispatcher = RequestDispatcher(
            replica.client,
            role="replica",
            store=replica.store,
            extra_stats=self._replication_stats,
            on_shutdown=self._stop_async,
        )
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listener")
        self._connections: List[socket.socket] = []
        #: Serving-loop telemetry: requests handled and time spent inside
        #: dispatch (query execution + response encoding), excluding syncs.
        self._requests = 0
        self._dispatch_seconds = 0.0
        self._last_sync = time.monotonic()
        self._last_request = time.monotonic()
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="replica-server", daemon=True
        )
        self._thread.start()
        self._closed = False

    @property
    def address(self) -> Address:
        return self._listener.getsockname()

    def _replication_stats(self) -> Dict[str, Any]:
        return {
            "replication_lag": self.replica.replication_lag,
            "pinned_version": self.replica.commit_version,
            "replication": dict(self.replica.stats),
            "requests": self._requests,
            "dispatch_seconds": round(self._dispatch_seconds, 4),
        }

    def _maybe_sync(self, threshold: Optional[float] = None) -> None:
        now = time.monotonic()
        if now - self._last_sync < (self.lease if threshold is None else threshold):
            return
        try:
            self.replica.sync()
        except Exception:
            # The writer is briefly unreachable or the apply failed and
            # rolled back: keep serving the pinned snapshot (the counters
            # record the failure) and retry on the next tick.
            pass
        self._last_sync = time.monotonic()

    def _run(self) -> None:
        idle_tick = max(0.01, min(self.lease, 0.05)) if self.lease else 0.01
        while not self._stop_event.is_set():
            events = self._selector.select(timeout=idle_tick)
            if not events:
                # Idle: keep converging so a drained writer's final version
                # lands here without any client traffic — on the slow
                # ``idle_resync`` clock, not the per-request lease.
                self._maybe_sync(self.idle_resync)
                if time.monotonic() - self._last_request > self.checkpoint_after:
                    try:
                        self.replica.checkpoint()
                    except Exception:
                        # Durability is best-effort between checkpoints by
                        # design; a failed flush retries on the next idle
                        # tick (and close() flushes unconditionally).
                        pass
                continue
            for key, _ in events:
                if key.data == "listener":
                    self._accept()
                else:
                    self._serve_one(key.fileobj)  # type: ignore[arg-type]

    def _accept(self) -> None:
        try:
            connection, _ = self._listener.accept()
        except OSError:
            return
        # Connection sockets stay *blocking* with a short timeout: a frame
        # is read in one piece once its first bytes arrive (the selector
        # only signals readability).  Simpler than a non-blocking reassembly
        # buffer, and a stalled peer costs at most one timeout tick.
        connection.settimeout(5.0)
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(connection, selectors.EVENT_READ, "connection")
        self._connections.append(connection)

    def _serve_one(self, connection: socket.socket) -> None:
        try:
            request = recv_frame(connection)
        except (ConnectionError, OSError, ProtocolError):
            self._drop(connection)
            return
        # Freshness lease: the answer must come from a recent-enough
        # snapshot, so sync *before* dispatching.  This round-trip blocks
        # only this replica; sibling replicas keep the core busy — the
        # overlap the serving benchmark measures.
        self._maybe_sync()
        self._last_request = time.monotonic()
        started = time.perf_counter()
        response = self.dispatcher.dispatch(request)
        self._requests += 1
        self._dispatch_seconds += time.perf_counter() - started
        try:
            send_frame(connection, response)
        except (ConnectionError, OSError):
            self._drop(connection)

    def _drop(self, connection: socket.socket) -> None:
        try:
            self._selector.unregister(connection)
        except (KeyError, ValueError):
            pass
        try:
            connection.close()
        except OSError:
            pass
        if connection in self._connections:
            self._connections.remove(connection)

    def _stop_async(self) -> None:
        self._stop_event.set()

    def join(self, timeout: Optional[float] = None) -> None:
        """Block until the loop exits (a ``shutdown`` RPC stops it)."""
        self._thread.join(timeout)

    def stop(self) -> None:
        self._stop_event.set()
        self._thread.join(5.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.stop()
        for connection in list(self._connections):
            self._drop(connection)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._selector.close()
        self._listener.close()
        self.replica.close()


def serve_replica(
    source_host: str,
    source_port: int,
    directory: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    lease: float = 0.05,
    idle_resync: float = 0.25,
    ready_file: Optional[Union[str, Path]] = None,
    durable_applies: bool = False,
) -> None:
    """Process entry point: serve ``directory`` against a writer until shutdown.

    The serving benchmark spawns one process per replica through this
    function; ``ready_file`` receives the bound address as JSON once the
    replica has bootstrapped, and a ``shutdown`` RPC ends the process.
    Applies default to lazy durability (idle-checkpointed): a serving slot
    that crashes mid-window restarts from its last checkpoint and re-pulls.
    """
    replica = Replica(
        (source_host, source_port), directory, durable_applies=durable_applies
    )
    server = ReplicaServer(
        replica, host=host, port=port, lease=lease, idle_resync=idle_resync
    )
    try:
        if ready_file is not None:
            bound_host, bound_port = server.address
            Path(ready_file).write_text(
                json.dumps(
                    {
                        "host": bound_host,
                        "port": bound_port,
                        "commit_version": replica.commit_version,
                    }
                )
            )
        server.join()
    finally:
        server.close()
