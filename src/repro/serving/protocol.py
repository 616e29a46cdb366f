"""Length-prefixed JSON frames plus a codec for LiDS values.

The wire format is deliberately minimal: each message is a 4-byte
big-endian length followed by that many bytes of UTF-8 JSON.  Requests are
``{"method": ..., "params": {...}}`` objects; responses are
``{"ok": true, "result": ...}`` or ``{"ok": false, "error": {...}}``.

JSON cannot carry RDF terms or :class:`~repro.tabular.Table`s directly, so
:func:`encode_value` / :func:`decode_value` tag them:

* a term becomes ``{"~t": "<n3 text>"}`` — :func:`repro.rdf.terms.term_n3`
  and :func:`~repro.rdf.terms.parse_term` round-trip terms *byte-identically*,
  which is what makes "remote rows byte-identical to in-process rows" a
  checkable property rather than a hope;
* a table becomes ``{"~table": name, "dataset": ..., "columns":
  [[name, [values...]], ...]}`` with cell values encoded recursively
  (query results keep raw term objects in their cells).

:func:`canonical_json` renders any encodable value with sorted keys and no
whitespace — the byte-identity comparison currency used by the benchmark
and the tests.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any, List

import numpy as np

from repro.rdf.terms import Literal, QuotedTriple, URIRef, parse_term, term_n3
from repro.tabular import Column, Table

#: Hard cap on one frame (256 MiB) — a corrupt length prefix must not turn
#: into an attempted multi-gigabyte allocation.
MAX_FRAME_BYTES = 1 << 28

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid frame."""


class PreparedFrame:
    """A response serialized to frame-body bytes ahead of time.

    :func:`send_frame` ships the bytes verbatim, skipping the per-send
    ``json.dumps``.  The dispatcher's frame memo leans on this: a repeated
    request at one store version — a replication window pulled by N
    replicas, a discovery call asked again — is serialized once and the
    same bytes are sent to every asker.
    """

    __slots__ = ("body",)

    def __init__(self, payload: Any):
        self.body = json.dumps(payload, separators=(",", ":")).encode("utf-8")


# ------------------------------------------------------------------- framing
def send_frame(sock: socket.socket, payload: Any) -> None:
    """Serialize ``payload`` (already codec-encoded) as one frame."""
    if isinstance(payload, PreparedFrame):
        body = payload.body
    else:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    sock.sendall(_LENGTH.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame; raises ``ConnectionError`` on EOF mid-frame."""
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced a {length}-byte frame")
    body = _recv_exact(sock, length)
    try:
        return json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise ProtocolError(f"undecodable frame: {error}") from error


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    parts = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts) if len(parts) != 1 else parts[0]


# ----------------------------------------------------------------- id packing
def pack_ids(ids: Any) -> "dict[str, str]":
    """A run of term ids as a base64 little-endian int64 buffer.

    Delta responses carry six-digit counts of ids; as JSON numbers each
    costs a decimal parse on every replica pulling the window, which is
    the single biggest slice of pull CPU.  A packed run decodes with one
    ``b64decode`` + ``np.frombuffer`` — C speed on both ends (the writer
    serializes from the numpy ravel directly).  Accepts any int sequence
    or int64 array.
    """
    array = np.asarray(ids, dtype="<i8")
    return {"~i64": base64.b64encode(array.tobytes()).decode("ascii")}


def unpack_ids(value: Any) -> List[int]:
    """Invert :func:`pack_ids`; plain JSON int lists pass through."""
    if isinstance(value, dict):
        return np.frombuffer(base64.b64decode(value["~i64"]), dtype="<i8").tolist()
    return value


# --------------------------------------------------------------------- codec
def encode_value(value: Any) -> Any:
    """Lower a LiDS value into plain JSON-serializable structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        # URIRef subclasses str: its n3 spelling (not its raw text) is what
        # round-trips, so check terms before the plain-scalar fast path.
        if isinstance(value, URIRef):
            return {"~t": term_n3(value)}
        return value
    if isinstance(value, (Literal, QuotedTriple)):
        return {"~t": term_n3(value)}
    if isinstance(value, Table):
        return {
            "~table": value.name,
            "dataset": value.dataset,
            "columns": [
                [column.name, [encode_value(cell) for cell in column.values]]
                for column in value.columns
            ],
        }
    if isinstance(value, np.generic):
        return encode_value(value.item())
    if isinstance(value, np.ndarray):
        return [encode_value(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    raise ProtocolError(f"cannot encode {type(value).__name__} for the wire")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if "~t" in value and len(value) == 1:
            return parse_term(value["~t"])
        if "~table" in value:
            return Table(
                value["~table"],
                columns=[
                    Column(name, [decode_value(cell) for cell in cells])
                    for name, cells in value["columns"]
                ],
                dataset=value.get("dataset", ""),
            )
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic rendering used for byte-identity comparisons."""
    return json.dumps(encode_value(value), sort_keys=True, separators=(",", ":"))
