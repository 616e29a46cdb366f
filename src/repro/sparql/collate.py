"""The collation tail: GROUP BY / ORDER BY / DISTINCT / OFFSET / LIMIT /
projection.

Works on int64 id columns (:class:`~repro.sparql.columnar.ColumnRelation`)
via ``np.unique`` / ``argsort``.  An id decodes at most once per query, into
one id -> value memo that sort keys, group keys and projected cells share,
and only when the answer reads it.  Grouping and sorting happen in id space
with a value-collision fallback: distinct ids decoding to equal typed values
(``5`` vs ``5.0``) collate together, exactly as keying on the decoded values
would.

Rows that OFFSET / LIMIT drop are not paid for.  Under ``ORDER BY … LIMIT``
the first sort key is ranked over every row; only rows ranked within the
``OFFSET + LIMIT`` smallest survive (ties at the boundary all do), still in
relation order, so the full sort over the survivors is exactly the prefix of
the full sort over all rows.  Without DISTINCT, OFFSET / LIMIT slice the id
rows before any cell decodes.  DISTINCT is exempt from both, since which rows
reach the window is known only after deduplication; ``SELECT *`` is exempt
from the cut, since its variable list comes from *all* sorted solutions.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sparql.algebra import Aggregate, SelectQuery
from repro.sparql.columnar import (
    UNBOUND,
    UNBOUND_ID,
    ColumnRelation,
    QueryEncoder,
    Relation,
    row_codes,
)
from repro.sparql.expression import to_python

Row = Dict[str, Any]

#: Group key standing in for float NaN values.  ``nan != nan``, so keying a
#: dict directly on the value would split equal-looking NaN cells into one
#: group per *object*; a shared sentinel keeps every NaN in one group.
_NAN_GROUP_KEY = object()

#: Below this many rows DISTINCT dedups id tuples with a dict; above, with
#: one dense numpy row code per row before any tuple is built.
_ARRAY_DISTINCT_MIN = 64


class _Values(dict):
    """id -> Python value; an id decodes on its first read, once per query."""

    __slots__ = ("_decode",)

    def __init__(self, encoder: QueryEncoder):
        super().__init__()
        self._decode = encoder.decode

    def __missing__(self, term_id: int) -> Any:
        value = self[term_id] = to_python(self._decode(term_id))
        return value


def collate(
    query: SelectQuery, relation: Relation, encoder: QueryEncoder
) -> Tuple[List[str], List[Row]]:
    """Turn the WHERE clause's solutions into ``(variables, result rows)``."""
    values = _Values(encoder)
    if query.has_aggregates():
        rows = _order_rows(query, _aggregate(query, relation, values))
        variables = [
            str(item.alias if isinstance(item, Aggregate) else item)
            for item in query.variables
        ]
        projected = [{name: row.get(name) for name in variables} for row in rows]
        return variables, _window(query, _distinct(projected) if query.distinct else projected)
    columns = ColumnRelation(relation)
    star = query.is_select_star()
    if query.order_by:
        cut = query.limit is not None and not query.distinct and not star
        keep = query.offset + query.limit if cut else None
        columns = _order_columns(query, columns, values, keep)
    variables = _star_variables(columns) if star else [str(item) for item in query.variables]
    return variables, _project(query, columns, variables, values)


def _window(query: SelectQuery, rows: list) -> list:
    """OFFSET / LIMIT over rows in result order."""
    end = None if query.limit is None else query.offset + query.limit
    return rows[query.offset : end]


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
    query: SelectQuery, columns: ColumnRelation, variables: List[str], values: _Values
) -> List[Row]:
    """Project the ordered solutions directly to Python-value rows.

    Without DISTINCT, OFFSET / LIMIT slice the id rows first, so only the
    returned cells decode.  DISTINCT is dictionary-aware: duplicate rows are
    eliminated on the projected *id* tuples first — integer hashing, no
    term decoding, no string keys — so only the surviving distinct rows are
    ever decoded.  A value-level pass then guards the rare id-distinct /
    value-equal collisions (two interned terms projecting to the same
    Python value, e.g. ``Literal(5)`` vs ``Literal("5")``) before the window.
    """
    rows = columns.rows if query.distinct else _window(query, columns.rows)
    slots = [columns.slot(name) for name in variables]
    if query.distinct and len(rows) > _ARRAY_DISTINCT_MIN:
        # First occurrences kept in row order.
        codes = row_codes(
            [
                columns.column(slot) if slot is not None else np.zeros(len(rows), np.int64)
                for slot in slots
            ],
            len(rows),
        )
        rows = [rows[i] for i in np.sort(np.unique(codes, return_index=True)[1]).tolist()]
    id_rows = [tuple(row[slot] if slot is not None else UNBOUND for slot in slots) for row in rows]
    if query.distinct:
        id_rows = list(dict.fromkeys(id_rows))
    projected = [
        {name: None if cell is None else values[cell] for name, cell in zip(variables, id_row)}
        for id_row in id_rows
    ]
    return _window(query, _distinct(projected)) if query.distinct else projected


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
    query: SelectQuery, columns: ColumnRelation, values: _Values, keep: Optional[int]
) -> ColumnRelation:
    """ORDER BY as one stable lexicographic sort over id-space rank columns.

    Each sort key decodes once per *distinct id* into its :func:`rank_key`;
    equal keys (including value collisions across distinct ids) share one
    integer rank, so a stable sort over ranks orders rows exactly as
    successive ``sorted`` calls over decoded values would — descending keys
    negate the rank, which under a stable sort preserves the original order
    of ties just like ``sorted(reverse=True)``.

    With ``keep`` (OFFSET + LIMIT) the first key's ranks cut the rows first:
    a row ranked after the ``keep``-th smallest cannot reach the result, so
    the other keys rank, and decode, only the survivors.
    """
    keys = [(columns.slot(str(variable)), ascending) for variable, ascending in query.order_by]
    # A constant (unbound) key is a no-op under a stable sort.
    keys = [(slot, ascending) for slot, ascending in keys if slot is not None]
    if len(columns) <= 1 or not keys:
        return columns
    (slot, ascending), *others = keys
    first = _column_ranks(columns.column(slot), values, ascending)
    if keep is not None and 0 < keep < len(columns):
        survivors = np.flatnonzero(first <= np.partition(first, keep - 1)[keep - 1])
        columns, first = columns.take(survivors), first[survivors]
    ranks = [_column_ranks(columns.column(slot), values, ascending) for slot, ascending in others]
    # np.lexsort is stable and sorts by its *last* key first.
    return columns.take(np.lexsort([*reversed(ranks), first]))


def _column_ranks(column: np.ndarray, values: _Values, ascending: bool) -> np.ndarray:
    """Dense sort ranks per row, negated for a descending key: equal sort
    keys share one rank."""
    distinct, inverse = np.unique(column, return_inverse=True)
    keys = [
        rank_key(None if term_id == UNBOUND_ID else values[term_id])
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
    return ranks[inverse] if ascending else -ranks[inverse]


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


def _aggregate(query: SelectQuery, relation: Relation, values: _Values) -> List[Row]:
    """GROUP BY + aggregates in id space.

    Group keys combine per-column canonical codes: each distinct id
    decodes once, and distinct ids whose typed values are equal (the
    ``5`` vs ``5.0`` collision) share one code.  Groups emit in
    first-occurrence row order with members in row order, and SUM / AVG
    are exactly rounded (:func:`_float_sum`), so results do not depend on
    the order a store's index yields its rows in.
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
            value = None if term_id == UNBOUND_ID else values[term_id]
            codes[position] = canonical.setdefault(_group_key(value), len(canonical))
        group_columns.append(codes[inverse])
    combined = row_codes(group_columns, count)

    _, first_index, inverse_codes, counts = np.unique(
        combined, return_index=True, return_inverse=True, return_counts=True
    )
    member_rows = np.split(np.argsort(inverse_codes, kind="stable"), np.cumsum(counts)[:-1])
    group_order = np.argsort(first_index, kind="stable")

    def first_value(first_row: tuple, name: str) -> Any:
        slot = relation.slot(name)
        cell = first_row[slot] if slot is not None else None
        return values[cell] if cell is not None else None

    group_names = [str(variable) for variable in query.group_by]
    results: List[Row] = []
    for group in group_order.tolist():
        members = member_rows[group]
        first_row = rows[int(first_index[group])]
        row = {name: first_value(first_row, name) for name in group_names}
        for item in query.variables:
            if isinstance(item, Aggregate):
                if item.argument is None:
                    arguments: List[Any] = [1] * len(members)
                else:
                    slot = relation.slot(str(item.argument))
                    cells = [] if slot is None else columns.column(slot)[members].tolist()
                    arguments = [values[cell] for cell in cells if cell != UNBOUND_ID]
                row[str(item.alias)] = aggregate_values(item, arguments)
            elif str(item) not in row:
                row[str(item)] = first_value(first_row, str(item))
        results.append(row)
    return results


def aggregate_values(aggregate: Aggregate, values: List[Any]) -> Any:
    """Reduce one group's (None-filtered) argument values."""
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
        return _float_sum(values)
    if aggregate.function == "avg":
        return _float_sum(values) / len(values)
    if aggregate.function == "min":
        return min(values)
    if aggregate.function == "max":
        return max(values)
    if aggregate.function == "sample":
        return values[0]
    raise ValueError(f"unknown aggregate {aggregate.function!r}")


def _float_sum(values: List[Any]) -> float:
    """The values' sum as floats, exactly rounded whatever their order.

    A live store, the same graph reopened and a replica iterate one set of
    rows in different orders, so left-to-right addition let their SUMs
    differ in the last digit.  What ``math.fsum`` refuses (infinities of
    both signs, partial sums past the float range) adds in sorted order.
    """
    floats = [float(value) for value in values]
    try:
        return math.fsum(floats)
    except (OverflowError, ValueError):
        return sum(sorted(floats))
