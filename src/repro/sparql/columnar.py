"""Columnar solution relations and per-query state of the SPARQL executor.

The executor represents intermediate solutions as a
:class:`Relation`: a fixed variable-slot layout plus rows that are plain
tuples of integer term ids — no per-row dicts, no term objects.  Joining a
triple pattern into the accumulated solutions is a hash join on the shared
variables; ids only decode back to terms at FILTER evaluation and final
projection.

Two id spaces meet here: the store's :class:`~repro.rdf.terms.TermDictionary`
assigns positive ids to interned terms, one per N-Triples spelling (a BIND
result ``"x"`` finds the stored ``Literal("x")``), and a per-query
:class:`QueryEncoder` assigns *negative* ids to query-local values (BIND
results, graph names or constants the store never interned).  A local id is
only assigned when the store has no id for the value, and local interning
keeps ``dict``-key equality.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rdf.terms import TermDictionary

#: Cell value marking an unbound variable slot (OPTIONAL padding).
UNBOUND = None

#: Sentinel id for unbound cells in numpy columns.  Safe because the store
#: dictionary assigns ids starting at 1 and query-local ids are negative, so
#: 0 never denotes a term in either id space.
UNBOUND_ID = 0


def column_ids(rows: Sequence[tuple], slot: int) -> np.ndarray:
    """One relation column as an int64 array (:data:`UNBOUND` -> 0).

    The bridge from tuple rows into vectorized collation: unbound cells map
    to :data:`UNBOUND_ID`, which no term id can collide with.
    """
    return np.fromiter(
        (row[slot] or UNBOUND_ID for row in rows), np.int64, len(rows)
    )


def row_codes(columns: Sequence[np.ndarray], length: int) -> np.ndarray:
    """Dense per-row codes: equal rows (over ``columns``) share one code.

    Mixed-radix combination with densification after every column keeps the
    intermediate codes bounded by the row count, so the combine never
    overflows int64 regardless of id magnitudes or column count.
    """
    if not columns:
        return np.zeros(length, np.int64)
    _, combined = np.unique(columns[0], return_inverse=True)
    for column in columns[1:]:
        distinct, inverse = np.unique(column, return_inverse=True)
        combined = combined * np.int64(len(distinct)) + inverse
        _, combined = np.unique(combined, return_inverse=True)
    return combined


class QueryEncoder:
    """Per-query value <-> id codec layered over the store dictionary.

    Reads pass through to the store's dictionary; values the store never
    interned (BIND results, graph names, constants absent from the data) get
    query-local negative ids, so every value flowing through a query has
    exactly one id and joins stay pure integer comparisons.
    """

    __slots__ = ("dictionary", "_local_ids", "_local_values")

    def __init__(self, dictionary: TermDictionary):
        self.dictionary = dictionary
        self._local_ids: Dict[Any, int] = {}
        self._local_values: List[Any] = []

    def encode(self, value: Any) -> int:
        """The value's id (store id when interned, else a query-local one)."""
        term_id = self.dictionary.lookup(value)
        if term_id is not None:
            return term_id
        local = self._local_ids.get(value)
        if local is None:
            self._local_values.append(value)
            local = -len(self._local_values)
            self._local_ids[value] = local
        return local

    def decode(self, term_id: int) -> Any:
        """The value behind an id from either space."""
        if term_id < 0:
            return self._local_values[-term_id - 1]
        return self.dictionary.decode(term_id)

    def quoted_id(self, parts: Tuple[int, int, int]) -> Optional[int]:
        """The store id of the quoted triple with these inner ids, if any."""
        if any(part < 0 for part in parts):
            return None
        return self.dictionary.quoted_id(parts)


class Relation:
    """A set of solutions over a fixed variable-slot layout.

    ``variables`` names the slots; each row is a tuple of ids (or
    :data:`UNBOUND` for variables an OPTIONAL branch left unbound).  Group
    evaluation only ever *extends* the layout — new variables append new
    slots — so a prefix of any descendant relation's layout is always the
    ancestor's layout.
    """

    __slots__ = ("variables", "rows", "_slots")

    def __init__(self, variables: Tuple[str, ...], rows: List[tuple]):
        self.variables = variables
        self.rows = rows
        self._slots: Dict[str, int] = {name: i for i, name in enumerate(variables)}

    @classmethod
    def unit(cls) -> "Relation":
        """The join identity: no variables, one empty row."""
        return cls((), [()])

    def slot(self, name: str) -> Optional[int]:
        return self._slots.get(name)

    def __len__(self) -> int:
        return len(self.rows)

    def decode_row(self, row: tuple, encoder: QueryEncoder) -> Dict[str, Any]:
        """One row as a seed-style binding dict (unbound slots omitted).

        Internal columns (names starting with ``#`` — impossible in parsed
        SPARQL variables) carry engine bookkeeping such as OPTIONAL row
        provenance, not term ids, and are never decoded.
        """
        decode = encoder.decode
        return {
            name: decode(cell)
            for name, cell in zip(self.variables, row)
            if cell is not UNBOUND and not name.startswith("#")
        }

    @staticmethod
    def concat(relations: Sequence["Relation"]) -> "Relation":
        """Union of relations, aligning layouts (missing slots pad unbound).

        Used for UNION branches, which may have grown different variable
        sets.
        """
        if not relations:
            return Relation((), [])
        variables: List[str] = []
        seen = set()
        for relation in relations:
            for name in relation.variables:
                if name not in seen:
                    seen.add(name)
                    variables.append(name)
        layout = tuple(variables)
        rows: List[tuple] = []
        for relation in relations:
            if relation.variables == layout:
                rows.extend(relation.rows)
                continue
            if relation.variables == layout[: len(relation.variables)]:
                # Aligned-prefix fast path: group evaluation only ever
                # appends slots, so UNION branches that grew the same
                # variables in the same order need pure tail padding — no
                # per-cell re-pick loop.
                padding = (UNBOUND,) * (len(layout) - len(relation.variables))
                rows.extend(row + padding for row in relation.rows)
                continue
            slots = [relation.slot(name) for name in layout]
            for row in relation.rows:
                rows.append(
                    tuple(row[slot] if slot is not None else UNBOUND for slot in slots)
                )
        return Relation(layout, rows)


class ColumnRelation:
    """A columnar numpy view over a :class:`Relation`.

    The vectorized collation tail (GROUP BY / ORDER BY / DISTINCT / SELECT
    ``*``) works on int64 id columns instead of per-row tuples: each column
    is materialized lazily on first access (only variables the query's
    collation actually reads are ever converted) and cached, with
    :data:`UNBOUND_ID` standing in for unbound cells.  ``take`` reorders the
    underlying rows while re-using already-gathered columns, so a multi-key
    ORDER BY builds each key column exactly once.
    """

    __slots__ = ("relation", "_columns")

    def __init__(self, relation: Relation):
        self.relation = relation
        self._columns: Dict[int, np.ndarray] = {}

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.relation.variables

    @property
    def rows(self) -> List[tuple]:
        return self.relation.rows

    def slot(self, name: str) -> Optional[int]:
        return self.relation.slot(name)

    def __len__(self) -> int:
        return len(self.relation.rows)

    def column(self, slot: int) -> np.ndarray:
        """The slot's id column (unbound cells as :data:`UNBOUND_ID`), cached."""
        column = self._columns.get(slot)
        if column is None:
            column = self._columns[slot] = column_ids(self.relation.rows, slot)
        return column

    def take(self, order: np.ndarray) -> "ColumnRelation":
        """Rows picked by position, carrying gathered columns along."""
        rows = self.relation.rows
        taken = ColumnRelation(
            Relation(self.relation.variables, [rows[i] for i in order.tolist()])
        )
        taken._columns = {slot: column[order] for slot, column in self._columns.items()}
        return taken


class QueryContext:
    """Everything one query evaluation owns, passed through the executor.

    The engine instance is shared by concurrent readers, so nothing an
    evaluation mutates lives on it: the id codec, the FILTER verdict tables,
    the OPTIONAL provenance-column counter and the memo counters are all
    per-evaluation, and the engine adds the counters to its cumulative
    totals once, when the evaluation ends.
    """

    __slots__ = ("store", "encoder", "counters", "filter_verdicts", "_provenance")

    def __init__(self, store: Any):
        self.store = store
        self.encoder = QueryEncoder(store.dictionary)
        #: Memo lookups of this evaluation, in :meth:`SPARQLEngine.stats`
        #: shape: a hit found the key already answered, a miss computed it.
        self.counters: Dict[str, Dict[str, int]] = {
            kind: {"hits": 0, "misses": 0} for kind in ("pattern_memo", "filter_memo")
        }
        #: Verdict tables (id -> bool), keyed by filter-clause identity.
        self.filter_verdicts: Dict[int, Dict[int, bool]] = {}
        self._provenance = 0

    def count(self, kind: str, lookups: int, misses: int) -> None:
        """Record ``lookups`` probes of one memo, ``misses`` of them new keys."""
        counters = self.counters[kind]
        counters["hits"] += lookups - misses
        counters["misses"] += misses

    def provenance_column(self) -> str:
        """A fresh hidden column name (``#`` cannot start a SPARQL variable)."""
        self._provenance += 1
        return f"#row{self._provenance}"
