"""RDF term model: URIs, literals, blank nodes, quoted (RDF-star) triples."""

from __future__ import annotations

import re
from typing import Any, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union


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
    """A blank node identified by a local label.

    Unlike :class:`URIRef` it does not compare or hash as its text: a blank
    node is a different term from the IRI or the string of the same label.
    """

    __slots__ = ()

    def n3(self) -> str:
        return f"_:{self}"

    def __eq__(self, other: object) -> bool:
        return other.__class__ is BNode and str.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("_:", str(self)))

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
#: Term classes whose equal objects always spell alike, so an object of one
#: of them may key the dictionary's object cache.  A plain Python value may
#: not: ``"x"`` equals ``URIRef("x")`` as a dict key but spells a literal.
_CACHED_CLASSES = frozenset((URIRef, Literal, BNode))


class TermDictionary:
    """Bidirectional term <-> integer-id interning, one per backend.

    Each distinct term gets one small integer id shared by every named graph,
    triples become id-tuples, and joins compare machine ints.  Ids start at
    1 (sqlite's ``INTEGER PRIMARY KEY`` row ids, stored verbatim); 0 is never
    assigned and negative ids are the SPARQL engine's query-local values.

    A term's identity is its N-Triples spelling (:func:`term_n3`) — what the
    sqlite backend stores and replication ships — on every backend.  So
    ``URIRef("x")``, ``BNode("x")`` and ``"x"`` are three terms, and a plain
    Python value is the :class:`Literal` it spells: ``"5"`` and
    ``Literal("5")`` share one id, which decodes to ``Literal("5")``.

    Spellings are the rows; term objects are a cache over them.  Rows loaded
    from disk or the wire (:meth:`load_rows`) stay text until their first
    :meth:`decode`.  A :class:`URIRef`, :class:`Literal` or :class:`BNode`
    object, once seen, keys its id directly, so a known term's lookup is a
    class check and one dict get.

    A quoted (RDF-star) triple is keyed by its part ids alone and has no
    spelling row: encoding one interns its inner terms and records the
    ``id -> (s, p, o)`` parts, so the graph index's quoted-triple indexes and
    the engine's quoted patterns never decode.
    """

    __slots__ = (
        "_term_to_id", "_id_to_term", "_text_to_id", "_id_to_text", "_quoted_parts", "_quoted_by_parts", "_next_id",
    )

    def __init__(self):
        #: Object cache: ``term -> id`` for exactly the non-quoted terms in
        #: ``_id_to_term`` (so :meth:`rollback_to` can pop both per id).
        self._term_to_id: dict = {}
        #: ``id -> term`` for the ids decoded or interned from an object.
        self._id_to_term: dict = {}
        self._text_to_id: dict = {}
        self._id_to_text: dict = {}
        #: ``quoted term id -> (subject id, predicate id, object id)``.
        self._quoted_parts: dict = {}
        #: Inverse of ``_quoted_parts`` for O(1) quoted-term lookups by parts.
        self._quoted_by_parts: dict = {}
        self._next_id: int = 1

    def __len__(self) -> int:
        return len(self._id_to_text) + len(self._quoted_parts)

    # ------------------------------------------------------------- interning
    def encode(self, term: Any) -> int:
        """The term's id, interning it (and any inner terms) if new."""
        if term.__class__ in _CACHED_CLASSES:
            term_id = self._term_to_id.get(term)
            if term_id is not None:
                return term_id
        elif term.__class__ is QuotedTriple:
            parts = (
                self.encode(term.subject),
                self.encode(term.predicate),
                self.encode(term.object),
            )
            term_id = self._quoted_by_parts.get(parts)
            if term_id is None:
                term_id = self._next_id
                self._next_id += 1
                self._id_to_term[term_id] = term
                self._quoted_parts[term_id] = parts
                self._quoted_by_parts[parts] = term_id
            return term_id
        text = term_n3(term)
        term_id = self._text_to_id.get(text)
        if term_id is None:
            term_id = self._next_id
            self._next_id += 1
            self._text_to_id[text] = term_id
            self._id_to_text[term_id] = text
        self._remember(term, term_id)
        return term_id

    def _remember(self, term: Any, term_id: int) -> None:
        """Cache ``term`` as the object of ``term_id`` if the id has none yet."""
        if term.__class__ in _CACHED_CLASSES and self._id_to_term.setdefault(term_id, term) is term:
            self._term_to_id[term] = term_id

    def load_rows(
        self, rows: Iterable[Tuple[int, str]], quoted: Iterable[Tuple[int, int, int, int]] = ()
    ) -> None:
        """Adopt ``(id, n3)`` spelling rows (kept as text) and ``(id, s, p, o)``
        quoted rows, as read from disk or shipped by replication."""
        last = self._next_id - 1
        for term_id, text in rows:
            self._text_to_id[text] = term_id
            self._id_to_text[term_id] = text
            last = max(last, term_id)
        for term_id, subject, predicate, obj in quoted:
            self._quoted_parts[term_id] = parts = (subject, predicate, obj)
            self._quoted_by_parts[parts] = term_id
            last = max(last, term_id)
        self._next_id = last + 1

    @property
    def next_id(self) -> int:
        """The id the next interned term would get (ids below it are taken).

        Replication ships dictionary rows incrementally by this watermark:
        a follower that knows every id below ``next_id`` only needs the
        rows at or above it (interning is append-only between rollbacks).
        """
        return self._next_id

    def export_rows(self, start: int) -> List[Tuple[int, str]]:
        """``(id, n3_text)`` rows for every non-quoted id in ``[start, next_id)``,
        in id order: the sqlite ``terms`` rows and replication's wire format.

        A follower's ``next_id`` names exactly the rows it is missing.  A
        quoted triple travels as its parts (:meth:`export_quoted_parts`).
        """
        id_to_text = self._id_to_text
        return [
            (term_id, id_to_text[term_id])
            for term_id in range(max(start, 1), self._next_id)
            if term_id in id_to_text
        ]

    def export_quoted_parts(self, start: int) -> List[int]:
        """Flat ``(quoted id, s, p, o)`` runs for quoted ids in ``[start, next_id)``."""
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

        An aborted batch rolls back to its mark, so it cannot change the ids
        of later terms — and therefore the durable byte layout.
        """
        return self._next_id

    def rollback_to(self, mark: int) -> None:
        """Forget every term interned at or after ``mark``, cached objects included.

        Safe only while the caller holds the store's write gate and after
        the triples referencing those ids have been rolled back.
        """
        for term_id in range(mark, self._next_id):
            text = self._id_to_text.pop(term_id, None)
            if text is not None:
                del self._text_to_id[text]
            term = self._id_to_term.pop(term_id, None)
            parts = self._quoted_parts.pop(term_id, None)
            if parts is not None:
                del self._quoted_by_parts[parts]
            elif term is not None:
                del self._term_to_id[term]
        self._next_id = min(mark, self._next_id)

    # --------------------------------------------------------------- lookups
    def lookup(self, term: Any) -> Optional[int]:
        """The term's id without interning; ``None`` for unknown terms."""
        if term.__class__ in _CACHED_CLASSES:
            term_id = self._term_to_id.get(term)
            if term_id is not None:
                return term_id
        elif term.__class__ is QuotedTriple:
            subject = self.lookup(term.subject)
            predicate = self.lookup(term.predicate)
            obj = self.lookup(term.object)
            if subject is None or predicate is None or obj is None:
                return None
            return self._quoted_by_parts.get((subject, predicate, obj))
        term_id = self._text_to_id.get(term_n3(term))
        if term_id is not None:
            self._remember(term, term_id)
        return term_id

    def decode(self, term_id: int) -> Any:
        """The term interned under ``term_id`` (parsed and cached on first use)."""
        term = self._id_to_term.get(term_id)
        if term is None:
            parts = self._quoted_parts.get(term_id)
            if parts is not None:
                term = QuotedTriple(*map(self.decode, parts))
            else:
                term = parse_term(self._id_to_text[term_id])
                self._term_to_id[term] = term_id
            self._id_to_term[term_id] = term
        return term

    def quoted_parts(self, term_id: int) -> Optional[Tuple[int, int, int]]:
        """Inner ``(s, p, o)`` ids of a quoted-triple id, else ``None``."""
        return self._quoted_parts.get(term_id)

    def quoted_id(self, parts: Tuple[int, int, int]) -> Optional[int]:
        """The id of the quoted triple with these inner ids, if interned."""
        return self._quoted_by_parts.get(parts)
