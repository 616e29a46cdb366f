"""RDF term model: URIs, literals, blank nodes, quoted (RDF-star) triples."""

from __future__ import annotations

import re
from typing import Any, Iterator, NamedTuple, Optional, Union


class URIRef(str):
    """A URI reference.  Subclasses ``str`` so it hashes/compares as its text."""

    __slots__ = ()

    def n3(self) -> str:
        """N-Triples serialization of the term."""
        return f"<{self}>"

    def local_name(self) -> str:
        """The fragment after the last ``/`` or ``#`` (for display purposes)."""
        text = str(self)
        for separator in ("#", "/"):
            if separator in text:
                candidate = text.rsplit(separator, 1)[1]
                if candidate:
                    return candidate
        return text

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"URIRef({str(self)!r})"


class BNode(str):
    """A blank node identified by a local label."""

    __slots__ = ()

    def n3(self) -> str:
        return f"_:{self}"

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"BNode({str(self)!r})"


def _escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_UNESCAPE_RE = re.compile(r'\\([\\"nrt])')
_UNESCAPE_MAP = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}

#: Lazily initialized XSD datatype sets for :meth:`Literal.to_python`
#: (the namespace module imports this one, so they cannot load eagerly).
_XSD_BOOLEAN = None
_XSD_INTEGER_TYPES: frozenset = frozenset()
_XSD_FLOAT_TYPES: frozenset = frozenset()


def _unescape_literal(text: str) -> str:
    # Escapes must be decoded in one left-to-right pass: sequential
    # str.replace would mis-read the character after an escaped backslash
    # (e.g. the serialized form of ``C:\new`` contains ``\\n``, which is an
    # escaped backslash followed by a plain ``n`` — not a newline).
    return _UNESCAPE_RE.sub(lambda match: _UNESCAPE_MAP[match.group(1)], text)


class Literal:
    """An RDF literal with an optional datatype or language tag.

    Python ``int``, ``float`` and ``bool`` values round-trip through the
    corresponding XSD datatypes via :meth:`to_python`.
    """

    __slots__ = ("value", "datatype", "language")

    def __init__(
        self,
        value: Any,
        datatype: Optional["URIRef"] = None,
        language: Optional[str] = None,
    ):
        from repro.rdf.namespace import XSD

        if isinstance(value, bool):
            self.value: str = "true" if value else "false"
            self.datatype: Optional[URIRef] = datatype or XSD.boolean
        elif isinstance(value, int):
            self.value = str(value)
            self.datatype = datatype or XSD.integer
        elif isinstance(value, float):
            self.value = repr(value)
            self.datatype = datatype or XSD.double
        else:
            self.value = str(value)
            self.datatype = datatype
        self.language = language

    def to_python(self) -> Any:
        """Convert back to a Python value based on the datatype."""
        datatype = self.datatype
        if datatype is None:
            return self.value
        global _XSD_BOOLEAN, _XSD_INTEGER_TYPES, _XSD_FLOAT_TYPES
        if _XSD_BOOLEAN is None:
            from repro.rdf.namespace import XSD

            _XSD_BOOLEAN = XSD.boolean
            _XSD_INTEGER_TYPES = frozenset((XSD.integer, XSD.int, XSD.long))
            _XSD_FLOAT_TYPES = frozenset((XSD.double, XSD.float, XSD.decimal))
        if datatype == _XSD_BOOLEAN:
            return self.value == "true"
        if datatype in _XSD_INTEGER_TYPES:
            try:
                return int(self.value)
            except ValueError:
                return self.value
        if datatype in _XSD_FLOAT_TYPES:
            try:
                return float(self.value)
            except ValueError:
                return self.value
        return self.value

    def n3(self) -> str:
        base = f'"{_escape_literal(self.value)}"'
        if self.language:
            return f"{base}@{self.language}"
        if self.datatype:
            return f"{base}^^<{self.datatype}>"
        return base

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return (
            self.value == other.value
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return hash((self.value, self.datatype, self.language))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Literal({self.value!r}, datatype={self.datatype!r})"

    @staticmethod
    def unescape(text: str) -> str:
        """Inverse of the N-Triples literal escaping."""
        return _unescape_literal(text)


class Triple(NamedTuple):
    """An RDF triple ``(subject, predicate, object)``."""

    subject: Any
    predicate: Any
    object: Any

    def n3(self) -> str:
        return f"{term_n3(self.subject)} {term_n3(self.predicate)} {term_n3(self.object)} ."


class QuotedTriple:
    """An RDF-star quoted triple usable as the subject of annotation triples."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Any, predicate: Any, obj: Any):
        self.subject = subject
        self.predicate = predicate
        self.object = obj

    def as_triple(self) -> Triple:
        return Triple(self.subject, self.predicate, self.object)

    def n3(self) -> str:
        return (
            f"<< {term_n3(self.subject)} {term_n3(self.predicate)} "
            f"{term_n3(self.object)} >>"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuotedTriple):
            return NotImplemented
        return (
            self.subject == other.subject
            and self.predicate == other.predicate
            and self.object == other.object
        )

    def __hash__(self) -> int:
        return hash(("<<>>", self.subject, self.predicate, self.object))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"QuotedTriple({self.subject!r}, {self.predicate!r}, {self.object!r})"


Term = Union[URIRef, BNode, Literal, QuotedTriple]


def term_n3(term: Any) -> str:
    """N-Triples serialization of any term (plain strings become literals)."""
    if isinstance(term, (URIRef, BNode, Literal, QuotedTriple)):
        return term.n3()
    return Literal(term).n3()


# ------------------------------------------------------------- term parsing
_TERM_RE = re.compile(
    r"""
    (?P<quoted><<.*?>>)            # RDF-star quoted triple (non-greedy)
    | (?P<uri><[^>]*>)             # URI
    | (?P<bnode>_:[^\s]+)          # blank node
    | (?P<literal>"(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>|@[A-Za-z\-]+)?)  # literal
    """,
    re.VERBOSE,
)


def parse_term(token: str) -> Term:
    """Parse one N-Triples term token back into its term object.

    The inverse of :func:`term_n3` (plain Python values that were coerced to
    literals on serialization come back as :class:`Literal`).  Shared by the
    N-Quads parser and the sqlite quad-store backend, which stores terms in
    their N-Triples text form.
    """
    token = token.strip()
    if token.startswith("<<") and token.endswith(">>"):
        inner = token[2:-2].strip()
        terms = list(iter_terms(inner))
        if len(terms) != 3:
            raise ValueError(f"malformed quoted triple: {token!r}")
        return QuotedTriple(terms[0], terms[1], terms[2])
    if token.startswith("<") and token.endswith(">"):
        return URIRef(token[1:-1])
    if token.startswith("_:"):
        return BNode(token[2:])
    if token.startswith('"'):
        match = re.match(r'^"((?:[^"\\]|\\.)*)"(?:\^\^<([^>]*)>|@([A-Za-z\-]+))?$', token)
        if not match:
            raise ValueError(f"malformed literal: {token!r}")
        value = Literal.unescape(match.group(1))
        datatype = URIRef(match.group(2)) if match.group(2) else None
        language = match.group(3)
        return Literal(value, datatype=datatype, language=language)
    raise ValueError(f"cannot parse term: {token!r}")


def iter_terms(text: str) -> Iterator[Term]:
    """Iterate the term objects of a whitespace-separated N-Triples line."""
    for match in _TERM_RE.finditer(text):
        yield parse_term(match.group(0))


# ------------------------------------------------------- dictionary encoding
class TermDictionary:
    """Bidirectional term <-> integer-id interning.

    Every serious triple store dictionary-encodes terms: each distinct term
    gets one small integer id, triples become id-tuples, and joins compare
    machine ints instead of hashing/comparing Python strings and literal
    objects.  One dictionary is shared by all named graphs of a backend, so
    ids are stable across graphs and a term's text is stored exactly once
    regardless of how many triples reference it.

    Ids start at 1 (matching sqlite's ``INTEGER PRIMARY KEY`` row ids so the
    persistent subclass can reuse them verbatim); id 0 is never assigned, and
    negative ids are reserved for the SPARQL engine's query-local values.

    Quoted (RDF-star) triples are first-class terms: encoding one interns its
    inner terms first and records the ``id -> (s, p, o)`` part mapping, so
    the graph index can maintain its partial quoted-triple indexes — and the
    engine can structurally match quoted patterns — without ever decoding.

    Equality follows Python ``dict`` key semantics, exactly like the seed's
    triple sets did: terms that compare equal (e.g. ``URIRef("x")`` and the
    plain string ``"x"``) alias to one id, terms that do not (``Literal("5")``
    vs ``"5"``) stay distinct.
    """

    __slots__ = (
        "_term_to_id",
        "_id_to_term",
        "_quoted_parts",
        "_quoted_by_parts",
        "_quoted_columns",
        "_quoted_appends",
        "_next_id",
    )

    def __init__(self):
        self._term_to_id: dict = {}
        self._id_to_term: dict = {}
        #: ``quoted term id -> (subject id, predicate id, object id)``.
        self._quoted_parts: dict = {}
        #: Inverse of ``_quoted_parts`` for O(1) quoted-term lookups by parts.
        self._quoted_by_parts: dict = {}
        #: Cached :meth:`quoted_columns` arrays; ``None`` after any mutation
        #: the cache cannot absorb (rollback), otherwise extended in place.
        self._quoted_columns = None
        #: ``(quoted id, s, p, o)`` registrations made since the cached
        #: snapshot was taken; merged into it on the next columns request.
        self._quoted_appends: list = []
        self._next_id: int = 1

    def __len__(self) -> int:
        return len(self._id_to_term)

    # ------------------------------------------------------------- interning
    def encode(self, term: Any) -> int:
        """The term's id, interning it (and any inner terms) if new.

        A quoted triple is keyed by its part ids alone — it is never hashed
        as an object, and its spelling is only built when it is new.
        """
        if isinstance(term, QuotedTriple):
            parts = (
                self.encode(term.subject),
                self.encode(term.predicate),
                self.encode(term.object),
            )
            term_id = self._quoted_by_parts.get(parts)
            if term_id is None:
                term_id = self._assign_quoted(term, parts)
                self._register_quoted(term_id, parts)
            return term_id
        term_id = self._term_to_id.get(term)
        return term_id if term_id is not None else self._assign(term)

    def _assign(self, term: Any) -> int:
        term_id = self._next_id
        self._next_id += 1
        self._term_to_id[term] = term_id
        self._id_to_term[term_id] = term
        return term_id

    def _assign_quoted(self, term: "QuotedTriple", parts: "tuple[int, int, int]") -> int:
        """A fresh id for a quoted triple whose part ids are ``parts``."""
        term_id = self._next_id
        self._next_id += 1
        self._id_to_term[term_id] = term
        return term_id

    def _register_quoted(self, term_id: int, parts: "tuple[int, int, int]") -> None:
        self._quoted_parts[term_id] = parts
        self._quoted_by_parts[parts] = term_id
        self._note_quoted(term_id, parts)

    @property
    def next_id(self) -> int:
        """The id the next interned term would get (ids below it are taken).

        Replication ships dictionary rows incrementally by this watermark:
        a follower that knows every id below ``next_id`` only needs the
        rows at or above it (interning is append-only between rollbacks).
        """
        return self._next_id

    def export_rows(self, start: int) -> "list[tuple[int, str]]":
        """``(id, n3_text)`` rows for every non-quoted id in ``[start, next_id)``.

        The wire format of dictionary replication: ids are contiguous from
        1, so a follower's ``next_id`` names exactly the rows it is
        missing.  Rows come back in id order.  A quoted triple has no text
        row: it travels as its part ids (:meth:`export_quoted_rows`).
        """
        id_to_term, quoted_parts = self._id_to_term, self._quoted_parts
        return [
            (term_id, term_n3(id_to_term[term_id]))
            for term_id in range(max(start, 1), self._next_id)
            if term_id in id_to_term and term_id not in quoted_parts
        ]

    def export_quoted_rows(self, start: int) -> "list[int]":
        """Flat ``(quoted id, s, p, o)`` runs for quoted ids in ``[start, next_id)``.

        Replication's sidecar to :meth:`export_rows`, and the only form a
        quoted triple travels in."""
        out: list = []
        extend = out.extend
        quoted_parts = self._quoted_parts
        for term_id in range(max(start, 1), self._next_id):
            parts = quoted_parts.get(term_id)
            if parts is not None:
                extend((term_id, parts[0], parts[1], parts[2]))
        return out

    # ---------------------------------------------------------------- undo
    def mark(self) -> int:
        """A rollback point: the next id that would be assigned.

        ``QuadStore.write_batch`` takes a mark when the outermost batch
        opens; :meth:`rollback_to` discards every id interned since, so an
        aborted batch cannot leak dictionary entries (which would make the
        ids of later terms — and therefore the durable byte layout — depend
        on batches that never committed).
        """
        return self._next_id

    def rollback_to(self, mark: int) -> None:
        """Forget every term interned at or after ``mark``.

        Safe only while the caller holds the store's write gate and after
        the triples referencing those ids have been rolled back.
        """
        for term_id in range(mark, self._next_id):
            term = self._id_to_term.pop(term_id, None)
            if term is not None:
                self._term_to_id.pop(term, None)
            parts = self._quoted_parts.pop(term_id, None)
            if parts is not None:
                self._quoted_by_parts.pop(parts, None)
        self._quoted_columns = None
        self._quoted_appends.clear()
        self._next_id = mark

    # --------------------------------------------------------------- lookups
    def lookup(self, term: Any) -> Optional[int]:
        """The term's id without interning; ``None`` for unknown terms."""
        if isinstance(term, QuotedTriple):
            subject = self.lookup(term.subject)
            predicate = self.lookup(term.predicate)
            obj = self.lookup(term.object)
            if subject is None or predicate is None or obj is None:
                return None
            return self.quoted_id((subject, predicate, obj))
        return self._term_to_id.get(term)

    def decode(self, term_id: int) -> Any:
        """The term interned under ``term_id``."""
        return self._id_to_term[term_id]

    def quoted_parts(self, term_id: int) -> Optional["tuple[int, int, int]"]:
        """Inner ``(s, p, o)`` ids of a quoted-triple id, else ``None``."""
        return self._quoted_parts.get(term_id)

    def quoted_id(self, parts: "tuple[int, int, int]") -> Optional[int]:
        """The id of the quoted triple with these inner ids, if interned."""
        return self._quoted_by_parts.get(parts)

    def quoted_columns(self):
        """Every quoted triple as four parallel int64 arrays, sorted by id:
        ``(quoted ids, inner subjects, inner predicates, inner objects)``.

        The vectorized annotation scan resolves a whole candidate column of
        quoted-subject ids with one ``searchsorted`` against these arrays
        instead of a dict probe per row.  The snapshot is cached; quoted
        registrations made since it was taken land in ``_quoted_appends``
        and — because interned ids are monotonically increasing — almost
        always extend the sorted arrays with one concatenate, so a stream
        of small commits pays O(new quoted terms) here rather than a full
        O(total) re-sort per commit.  Rollbacks and out-of-order
        registrations still force the full rebuild.
        """
        cached = self._quoted_columns
        if cached is not None and not self._quoted_appends:
            return cached
        import numpy as np

        if cached is not None:
            # Incremental merge.  Every quoted registration since the
            # snapshot went through ``_note_quoted`` (intern or shipped-row
            # load), so the append queue *is* the complete diff.
            appends = self._quoted_appends
            chunk = np.array(appends, dtype=np.int64).reshape(len(appends), 4)
            chunk = chunk[np.argsort(chunk[:, 0], kind="stable")]
            if len(cached[0]) == 0 or chunk[0, 0] > cached[0][-1]:
                cached = (
                    np.concatenate([cached[0], chunk[:, 0]]),
                    np.concatenate([cached[1], chunk[:, 1]]),
                    np.concatenate([cached[2], chunk[:, 2]]),
                    np.concatenate([cached[3], chunk[:, 3]]),
                )
                self._quoted_appends = []
                self._quoted_columns = cached
                return cached
            # Out-of-order ids: full rebuild below.
            self._quoted_columns = None
        self._quoted_appends.clear()
        count = len(self._quoted_parts)
        ids = np.fromiter(self._quoted_parts.keys(), np.int64, count)
        parts = np.fromiter(
            (part for triple in self._quoted_parts.values() for part in triple),
            np.int64,
            3 * count,
        ).reshape(count, 3)
        order = np.argsort(ids, kind="stable")
        cached = (
            ids[order],
            np.ascontiguousarray(parts[order, 0]),
            np.ascontiguousarray(parts[order, 1]),
            np.ascontiguousarray(parts[order, 2]),
        )
        self._quoted_columns = cached
        return cached

    def _note_quoted(self, term_id: int, parts: "tuple[int, int, int]") -> None:
        """Record one fresh quoted-part registration against the cache.

        With a columnar snapshot outstanding the registration is queued for
        the incremental merge in :meth:`quoted_columns`; with no snapshot
        there is nothing to patch and the eventual full build reads the
        maps directly.
        """
        if self._quoted_columns is not None:
            self._quoted_appends.append((term_id, parts[0], parts[1], parts[2]))
