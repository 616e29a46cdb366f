"""The collation tail: GROUP BY / ORDER BY / DISTINCT / projection.

Works on int64 id columns (:class:`~repro.sparql.columnar.ColumnRelation`)
via ``np.unique`` / ``argsort``, decoding only the distinct ids a query
actually reads.  Grouping and sorting happen in id space with a
value-collision fallback: distinct ids decoding to equal typed values (``5``
vs ``5.0``) collate together, exactly as keying on the decoded values would.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.sparql.algebra import Aggregate, SelectQuery
from repro.sparql.columnar import (
    UNBOUND,
    UNBOUND_ID,
    ColumnRelation,
    QueryEncoder,
    Relation,
    column_ids,
    row_codes,
)
from repro.sparql.expression import to_python

Row = Dict[str, Any]

#: Group key standing in for float NaN values.  ``nan != nan``, so keying a
#: dict directly on the value would split equal-looking NaN cells into one
#: group per *object*; a shared sentinel keeps every NaN in one group.
_NAN_GROUP_KEY = object()

#: Below this many rows DISTINCT dedups id tuples with a Python set; above,
#: with one dense numpy row code per tuple.
_ARRAY_DISTINCT_MIN = 64


def collate(
    query: SelectQuery, relation: Relation, encoder: QueryEncoder
) -> Tuple[List[str], List[Row]]:
    """Turn the WHERE clause's solutions into ``(variables, result rows)``."""
    if query.has_aggregates():
        rows = _order_rows(query, _aggregate(query, relation, encoder))
        variables = [
            str(item.alias if isinstance(item, Aggregate) else item)
            for item in query.variables
        ]
        projected = [{name: row.get(name) for name in variables} for row in rows]
        return variables, _window(query, projected)
    columns = ColumnRelation(relation)
    if query.order_by:
        columns = _order_columns(query, columns, encoder)
    variables = (
        _star_variables(columns)
        if query.is_select_star()
        else [str(item) for item in query.variables]
    )
    return variables, _project(query, columns.relation, encoder, variables)


def _window(query: SelectQuery, rows: List[Row]) -> List[Row]:
    """DISTINCT, then OFFSET / LIMIT, over projected rows."""
    if query.distinct:
        rows = _distinct(rows)
    if query.offset:
        rows = rows[query.offset :]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _distinct(rows: List[Row]) -> List[Row]:
    seen = set()
    unique: List[Row] = []
    for row in rows:
        key = tuple(sorted((k, str(v)) for k, v in row.items()))
        if key not in seen:
            seen.add(key)
            unique.append(row)
    return unique


# --------------------------------------------------------------- projection
def _project(
    query: SelectQuery, relation: Relation, encoder: QueryEncoder, variables: List[str]
) -> List[Row]:
    """Project a result relation directly to Python-value rows.

    One decode per selected cell (memoized id -> Python value).  DISTINCT
    is dictionary-aware: duplicate rows are eliminated on the projected
    *id* tuples first — integer hashing, no term decoding, no string
    keys — so only the surviving distinct rows are ever decoded.  A
    value-level pass then guards the rare id-distinct / value-equal
    collisions (two interned terms projecting to the same Python value,
    e.g. ``Literal(5)`` vs ``Literal("5")``).
    """
    rows = relation.rows
    slots = [relation.slot(name) for name in variables]
    id_rows: Iterable[tuple] = (
        tuple(row[slot] if slot is not None else UNBOUND for slot in slots) for row in rows
    )
    if query.distinct:
        if len(rows) > _ARRAY_DISTINCT_MIN:
            # First occurrences kept in row order.
            columns = [
                column_ids(rows, slot) if slot is not None else np.zeros(len(rows), np.int64)
                for slot in slots
            ]
            _, first = np.unique(row_codes(columns, len(rows)), return_index=True)
            id_rows = [
                tuple(rows[i][slot] if slot is not None else UNBOUND for slot in slots)
                for i in np.sort(first).tolist()
            ]
        else:
            seen: Set[tuple] = set()
            deduplicated: List[tuple] = []
            for id_row in id_rows:
                if id_row not in seen:
                    seen.add(id_row)
                    deduplicated.append(id_row)
            id_rows = deduplicated
    decode = encoder.decode
    #: id -> projected Python value, shared across rows.
    values: Dict[int, Any] = {}
    projected: List[Row] = []
    for id_row in id_rows:
        row: Row = {}
        for name, cell in zip(variables, id_row):
            if cell is None:
                row[name] = None
                continue
            value = values.get(cell)
            if value is None:
                value = values[cell] = to_python(decode(cell))
            row[name] = value
        projected.append(row)
    return _window(query, projected)


def _star_variables(columns: ColumnRelation) -> List[str]:
    """SELECT * variable order: first row each variable is bound in, then
    slot order — a first-occurrence scan over the solutions without
    decoding anything.  Hidden (``#``) columns never project."""
    entries: List[Tuple[int, int, str]] = []
    for slot, name in enumerate(columns.variables):
        if name.startswith("#"):
            continue
        bound = columns.column(slot) != UNBOUND_ID
        if bound.any():
            entries.append((int(np.argmax(bound)), slot, name))
    entries.sort()
    return [name for _, _, name in entries]


# ------------------------------------------------------------------ ORDER BY
def rank_key(value: Any) -> tuple:
    """The ORDER BY sort key of one Python value: numbers before strings."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value, "")
    return (1, 0, str(value))


def _order_rows(query: SelectQuery, rows: List[Row]) -> List[Row]:
    """ORDER BY over already-decoded (aggregated) rows."""
    for variable, ascending in reversed(query.order_by):
        name = str(variable)
        rows = sorted(rows, key=lambda row: rank_key(row.get(name)), reverse=not ascending)
    return rows


def _order_columns(
    query: SelectQuery, columns: ColumnRelation, encoder: QueryEncoder
) -> ColumnRelation:
    """ORDER BY as successive stable argsorts over id-space rank columns.

    Each sort key decodes once per *distinct id* into its :func:`rank_key`;
    equal keys (including value collisions across distinct ids) share one
    integer rank, so stable argsorts over ranks order rows exactly as
    ``sorted`` over decoded values would — descending keys negate the rank,
    which under a stable sort preserves the original order of ties just
    like ``sorted(reverse=True)``.
    """
    if len(columns) <= 1:
        return columns
    order = np.arange(len(columns))
    for variable, ascending in reversed(query.order_by):
        slot = columns.slot(str(variable))
        if slot is None:
            continue  # constant (unbound) key: stable sort is a no-op
        ranks = _column_ranks(columns.column(slot), encoder)
        key = ranks if ascending else -ranks
        order = order[np.argsort(key[order], kind="stable")]
    return columns.take(order)


def _column_ranks(column: np.ndarray, encoder: QueryEncoder) -> np.ndarray:
    """Dense sort ranks per row: equal sort keys share one rank."""
    distinct, inverse = np.unique(column, return_inverse=True)
    decode = encoder.decode
    keys = [
        rank_key(None if term_id == UNBOUND_ID else to_python(decode(term_id)))
        for term_id in distinct.tolist()
    ]
    ranks = np.empty(len(keys), np.int64)
    rank = -1
    previous: Optional[tuple] = None
    for position in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[position]
        if previous is None or key != previous:
            rank += 1
            previous = key
        ranks[position] = rank
    return ranks[inverse]


# ---------------------------------------------------------------- GROUP BY
def _group_key(value: Any) -> Any:
    """The GROUP BY key for one typed value.

    Typed values key directly (so ``Literal(5)`` and ``Literal("5")`` form
    separate groups, while ``5`` and ``5.0`` — equal under Python's value
    equality — collate together), with NaN canonicalized to a shared
    sentinel.
    """
    if isinstance(value, float) and value != value:
        return _NAN_GROUP_KEY
    return value


def _aggregate(query: SelectQuery, relation: Relation, encoder: QueryEncoder) -> List[Row]:
    """GROUP BY + aggregates in id space.

    Group keys combine per-column canonical codes: each distinct id
    decodes once, and distinct ids whose typed values are equal (the
    ``5`` vs ``5.0`` collision) share one code.  Groups emit in
    first-occurrence row order with members in row order, and SUM / AVG
    reduce with left-to-right Python float addition, so results do not
    depend on how rows were batched.
    """
    rows = relation.rows
    count = len(rows)
    if count == 0:
        if query.group_by:
            return []
        # No GROUP BY over no solutions: one all-empty group.
        return [
            {
                str(item.alias): aggregate_values(item, [])
                for item in query.variables
                if isinstance(item, Aggregate)
            }
        ]

    columns = ColumnRelation(relation)
    value_cache: Dict[int, Any] = {}
    decode = encoder.decode

    def decode_value(term_id: int) -> Any:
        if term_id in value_cache:
            return value_cache[term_id]
        value = value_cache[term_id] = to_python(decode(term_id))
        return value

    group_columns: List[np.ndarray] = []
    for variable in query.group_by:
        slot = relation.slot(str(variable))
        if slot is None:
            group_columns.append(np.zeros(count, np.int64))
            continue
        distinct, inverse = np.unique(columns.column(slot), return_inverse=True)
        canonical: Dict[Any, int] = {}
        codes = np.empty(len(distinct), np.int64)
        for position, term_id in enumerate(distinct.tolist()):
            value = None if term_id == UNBOUND_ID else decode_value(term_id)
            codes[position] = canonical.setdefault(_group_key(value), len(canonical))
        group_columns.append(codes[inverse])
    combined = row_codes(group_columns, count)

    _, first_index, inverse_codes, counts = np.unique(
        combined, return_index=True, return_inverse=True, return_counts=True
    )
    member_rows = np.split(np.argsort(inverse_codes, kind="stable"), np.cumsum(counts)[:-1])
    group_order = np.argsort(first_index, kind="stable")

    # Aggregate argument columns and their decoded id -> value maps,
    # built once per referenced variable.
    argument_columns: Dict[str, Optional[Tuple[np.ndarray, Dict[int, Any]]]] = {}
    for item in query.variables:
        if not isinstance(item, Aggregate) or item.argument is None:
            continue
        name = str(item.argument)
        if name in argument_columns:
            continue
        slot = relation.slot(name)
        if slot is None:
            argument_columns[name] = None
            continue
        column = columns.column(slot)
        decoded = {
            term_id: decode_value(term_id)
            for term_id in np.unique(column).tolist()
            if term_id != UNBOUND_ID
        }
        argument_columns[name] = (column, decoded)

    def first_value(first_row: tuple, name: str) -> Any:
        slot = relation.slot(name)
        cell = first_row[slot] if slot is not None else None
        return decode_value(cell) if cell is not None else None

    group_names = [str(variable) for variable in query.group_by]
    results: List[Row] = []
    for group in group_order.tolist():
        members = member_rows[group]
        first_row = rows[int(first_index[group])]
        row = {name: first_value(first_row, name) for name in group_names}
        for item in query.variables:
            if isinstance(item, Aggregate):
                if item.argument is None:
                    values: List[Any] = [1] * len(members)
                else:
                    entry = argument_columns[str(item.argument)]
                    if entry is None:
                        values = []
                    else:
                        column, decoded = entry
                        values = [
                            decoded[term_id]
                            for term_id in column[members].tolist()
                            if term_id != UNBOUND_ID
                        ]
                row[str(item.alias)] = aggregate_values(item, values)
            elif str(item) not in row:
                row[str(item)] = first_value(first_row, str(item))
        results.append(row)
    return results


def aggregate_values(aggregate: Aggregate, values: List[Any]) -> Any:
    """Reduce one group's (None-filtered) argument values.

    SUM / AVG use Python's left-to-right float addition.
    """
    if aggregate.distinct:
        seen = set()
        unique = []
        for value in values:
            key = str(value)
            if key not in seen:
                seen.add(key)
                unique.append(value)
        values = unique
    if aggregate.function == "count":
        return len(values)
    if not values:
        return None
    if aggregate.function == "sum":
        return sum(float(v) for v in values)
    if aggregate.function == "avg":
        return sum(float(v) for v in values) / len(values)
    if aggregate.function == "min":
        return min(values)
    if aggregate.function == "max":
        return max(values)
    if aggregate.function == "sample":
        return values[0]
    raise ValueError(f"unknown aggregate {aggregate.function!r}")
