"""The writer-side server: query RPCs plus snapshot-delta fetches.

:class:`LiDSServer` wraps any in-process :class:`LiDSClient` (usually one
fronting a live :class:`~repro.kg.service.GovernorService`) in a threaded
TCP server speaking the :mod:`repro.serving.protocol` frames.  Two request
families share the connection:

* ``call`` — one read-only discovery method from :data:`READ_METHODS`,
  answered from the live graph under its read-view gate;
* ``delta`` — a replica's refresh pull: "everything committed after my
  pinned ``commit_version``", answered as new dictionary rows plus either
  per-commit row ops (when the store's delta log can bridge the gap) or
  full row dumps of just the changed graphs.

A ``delta`` pull and a call of :data:`MEMOIZED_CALLS` are answered from the
dispatcher's frame memo when the same request was answered at the current
``store.version`` (see :meth:`RequestDispatcher._memoized`).

Mutations never cross this wire: replicas are read-only by construction
and the writer's ingestion arrives through the governor service / crawler,
not RPC.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.interfaces.api import LiDSClient
from repro.kg.errors import TransientError
from repro.rdf.store import QuadStore, VersionMemo
from repro.serving.protocol import (
    PreparedFrame,
    ProtocolError,
    decode_value,
    encode_value,
    pack_ids,
    recv_frame,
    send_frame,
)

#: The read-only discovery surface exposed over the wire — exactly the
#: :class:`LiDSClient` methods a remote data scientist may call.
READ_METHODS = frozenset(
    {
        "query",
        "search_keywords",
        "get_unionable_tables",
        "get_joinable_tables",
        "find_unionable_columns",
        "get_path_to_table",
        "get_shortest_path_between_tables",
        "get_top_k_library_used",
        "get_top_used_libraries",
        "get_pipelines_calling_libraries",
        "recommend_hyperparameters",
        "statistics",
        "stats",
    }
)

#: The ``call`` names whose answer is a function of the committed graph
#: alone, so a repeat at one ``store.version`` is served the frame the first
#: ask built.  ``query`` and ``get_pipelines_calling_libraries`` stay out:
#: the SPARQL engine's answer memo owns SPARQL, so every query still reaches
#: ``SPARQLEngine.evaluate``.  ``statistics`` stays out because it counts
#: models and embeddings, which live outside the store.
MEMOIZED_CALLS = frozenset(
    {
        "search_keywords",
        "get_unionable_tables",
        "get_joinable_tables",
        "find_unionable_columns",
        "get_path_to_table",
        "get_shortest_path_between_tables",
        "get_top_k_library_used",
        "get_top_used_libraries",
        "recommend_hyperparameters",
    }
)

#: The bound of one dispatcher's frame memo, in bytes.
FRAME_MEMO_BYTES = 8 << 20

#: The canonical text of a request's params: the frame memo's key.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def compute_delta(store: QuadStore, since_version: int, since_terms: int) -> Dict[str, Any]:
    """Everything a follower pinned at ``since_version`` is missing.

    Runs under one read view so the version, the dictionary rows and the
    row data describe a single committed state.  Three shapes:

    * ``{"changed": False}`` — the follower is current;
    * ``ops`` — the delta log bridged the gap: dictionary rows at ids >=
      ``since_terms`` (packed ids + newline-joined spellings, with a plain
      ``[id, text]`` list fallback; a quoted triple has no spelling and
      travels only as its ``(id, s, p, o)`` run in ``quoted``), plus
      per-row ops (``["add"|"remove", graph, flat s,p,o id runs]`` with
      consecutive same-graph ops coalesced, and ``["drop", graph, None]``),
      to be replayed in order — id runs ship packed
      (:func:`~repro.serving.protocol.pack_ids`);
    * ``full`` — the log could not bridge (truncated, reset, or the
      follower is from a plain file copy): complete row dumps of every
      graph changed since ``since_version`` plus the graph catalog
      (``all_graphs``) so the follower can drop vanished graphs.
    """
    with store.read_view():
        version = store.commit_version
        if since_version >= version:
            return {"version": version, "changed": False}
        term_rows = store.dictionary.export_rows(since_terms)
        quoted = store.dictionary.export_quoted_parts(since_terms)
        if term_rows and all("\n" not in text for _, text in term_rows):
            # Packed shape: ids as one int64 buffer, spellings newline-joined
            # — decodes as one split instead of one JSON array per term.
            # N-Triples escapes newlines in literals; the guard covers the
            # pathological URI that could still smuggle one in.
            terms: Any = {
                "ids": pack_ids([term_id for term_id, _ in term_rows]),
                "texts": "\n".join(text for _, text in term_rows),
            }
        else:
            terms = term_rows
        entries = store.delta_log_since(since_version)
        if entries is not None:
            ops: List[List[Any]] = []
            for _, commit_ops in entries:
                for kind, graph, payload in commit_ops:
                    if kind == "drop":
                        ops.append(["drop", str(graph), None])
                        continue
                    if ops and ops[-1][0] == kind and ops[-1][1] == str(graph):
                        ops[-1][2].extend(payload)
                    else:
                        ops.append([kind, str(graph), list(payload)])
            for op in ops:
                if op[2] is not None:
                    op[2] = pack_ids(op[2])
            return {
                "version": version,
                "changed": True,
                "full": False,
                "terms": terms,
                "quoted": pack_ids(quoted),
                "ops": ops,
            }
        graphs: Dict[str, Any] = {}
        for graph in store.graphs_changed_since(since_version):
            s_col, p_col, o_col = store.match_id_arrays(graph=graph)
            rows = np.empty((len(s_col), 3), dtype=np.int64)
            rows[:, 0] = s_col
            rows[:, 1] = p_col
            rows[:, 2] = o_col
            graphs[str(graph)] = pack_ids(rows.ravel())
        return {
            "version": version,
            "changed": True,
            "full": True,
            "terms": terms,
            "quoted": pack_ids(quoted),
            "graphs": graphs,
            "all_graphs": [str(graph) for graph in store.graphs()],
        }


class RequestDispatcher:
    """Maps one decoded request frame to one response frame.

    Shared by the threaded writer server and the single-threaded replica
    loop — the serving semantics (method whitelist, error shaping, the
    transient flag the remote client keys its retry policy on) live here
    exactly once.
    """

    def __init__(
        self,
        client: LiDSClient,
        role: str = "writer",
        store: Optional[QuadStore] = None,
        extra_stats: Optional[Callable[[], Dict[str, Any]]] = None,
        on_shutdown: Optional[Callable[[], None]] = None,
    ):
        self.client = client
        self.role = role
        self.store = store if store is not None else client.storage.graph
        self.extra_stats = extra_stats
        self.on_shutdown = on_shutdown
        #: Answered requests as frame bytes, for one ``store.version``
        #: (:meth:`_memoized`).
        self._frames = VersionMemo(FRAME_MEMO_BYTES, lambda frame: len(frame.body))

    def dispatch(self, request: Any) -> Any:
        """One decoded request frame in, one response in.

        Usually a response *object* for :func:`send_frame` to serialize; a
        memoized request returns a :class:`PreparedFrame`.
        """
        try:
            if not isinstance(request, dict):
                raise ProtocolError("request frame must be an object")
            method = request.get("method")
            params = request.get("params") or {}
            if method == "delta" or (method == "call" and params.get("name") in MEMOIZED_CALLS):
                return self._memoized(method, params)
            if method == "ping":
                result: Any = {
                    "role": self.role,
                    "commit_version": self.client.commit_version,
                }
            elif method == "stats":
                result = self._stats()
            elif method == "call":
                result = self._call(params)
            elif method == "shutdown":
                if self.on_shutdown is not None:
                    self.on_shutdown()
                result = True
            else:
                raise ProtocolError(f"unknown method {method!r}")
            return {"ok": True, "result": encode_value(result)}
        except BaseException as error:  # noqa: BLE001 — becomes the error frame
            return {
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                    "transient": isinstance(error, TransientError),
                },
            }

    def _memoized(self, method: str, params: Dict[str, Any]) -> PreparedFrame:
        """One memoizable request, answered from the frame memo when hot.

        The memo is a :class:`~repro.rdf.store.VersionMemo` keyed by the
        method plus the canonical text of its params and bounded at
        :data:`FRAME_MEMO_BYTES`; a request that raised keeps nothing, so its
        error frame is built anew on every call.  N replicas pulling one
        window get one serialization per commit.
        """
        store = self.store

        def build() -> PreparedFrame:
            if method == "delta":
                payload = compute_delta(
                    store, int(params.get("since_version", 0)), int(params.get("since_terms", 1))
                )
            else:
                payload = encode_value(self._call(params))
            return PreparedFrame({"ok": True, "result": payload})

        with store.read_view():
            return self._frames.get(store, method + _canonical(params), build)

    def _stats(self) -> Dict[str, Any]:
        payload = self.client.stats()
        payload["role"] = self.role
        frames = self._frames
        payload["frames"] = {"hits": frames.hits, "misses": frames.misses, "bytes": frames.size}
        if self.extra_stats is not None:
            payload.update(self.extra_stats())
        return payload

    def _call(self, params: Dict[str, Any]) -> Any:
        name = params.get("name")
        if name == "stats":
            return self._stats()
        if name not in READ_METHODS:
            raise ProtocolError(f"method {name!r} is not servable")
        args = decode_value(params.get("args") or [])
        kwargs = decode_value(params.get("kwargs") or {})
        return getattr(self.client, name)(*args, **kwargs)


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        dispatcher: RequestDispatcher = self.server.dispatcher  # type: ignore[attr-defined]
        while True:
            try:
                request = recv_frame(self.request)
            except (ConnectionError, OSError):
                return
            except ProtocolError:
                return
            response = dispatcher.dispatch(request)
            try:
                send_frame(self.request, response)
            except (ConnectionError, OSError):
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class LiDSServer:
    """Serve one in-process :class:`LiDSClient` over TCP (threaded).

    The writer endpoint of the serving tier: each connection gets its own
    handler thread, so slow replica delta pulls never block interactive
    queries (each call still serializes on the store's read-view gate,
    which is the consistency boundary).  Enables the store's delta log by
    default so replicas refresh via row ops rather than shard re-ships;
    pass ``delta_log_capacity=None`` to serve full-dump deltas only.
    """

    def __init__(
        self,
        client: LiDSClient,
        host: str = "127.0.0.1",
        port: int = 0,
        role: str = "writer",
        delta_log_capacity: Optional[int] = 1024,
    ):
        self.client = client
        # The writer hosts CPU-heavy governance threads next to IO-bound RPC
        # handlers; at the default 5 ms GIL switch interval a long-running
        # profiling pass starves every handler (and with it every replica's
        # freshness sync) into convoy latency.  A sub-millisecond interval
        # is the standard tuning for this mixed workload.
        if sys.getswitchinterval() > 0.001:
            sys.setswitchinterval(0.001)
        if delta_log_capacity is not None:
            client.storage.graph.enable_delta_log(delta_log_capacity)
        self.dispatcher = RequestDispatcher(
            client, role=role, on_shutdown=self._shutdown_async
        )
        self._server = _Server((host, port), _FrameHandler)
        self._server.dispatcher = self.dispatcher  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="lids-server", daemon=True
        )
        self._thread.start()
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def _shutdown_async(self) -> None:
        # ``shutdown()`` joins the serve_forever loop; fired from a handler
        # thread that loop is still pumping, so hop to a fresh thread.
        threading.Thread(target=self.close, daemon=True).start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server.shutdown()
        self._server.server_close()
