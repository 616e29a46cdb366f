"""A deliberately naive SPARQL evaluator: the differential oracle.

The seed engine's written-order loop, moved out of ``src/``: patterns are
evaluated in the order written, with one ``store.match`` per binding and one
dict per solution — no planner, no memo, no id space, no numpy.  It is slow
and obviously right, and every parity test compares the production executor
(:class:`repro.sparql.SPARQLEngine`) against it.

Imports only the parser, its algebra node types and the shared expression
evaluator; nothing else from the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.rdf.namespace import DEFAULT_PREFIXES
from repro.rdf.terms import QuotedTriple
from repro.sparql.algebra import (
    Aggregate,
    BindClause,
    FilterClause,
    GroupPattern,
    NamedGraphPattern,
    OptionalPattern,
    QuotedPattern,
    SelectQuery,
    TriplePattern,
    UnionPattern,
    Var,
)
from repro.sparql.expression import evaluate_expression, to_python, truth
from repro.sparql.parser import parse_query

Binding = Dict[str, Any]

_NAN = object()  # one shared GROUP BY key for NaN (nan != nan)


@dataclass
class OracleResult:
    variables: List[str]
    rows: List[Dict[str, Any]]

    def __len__(self) -> int:
        return len(self.rows)


def select(store, query: str, prefixes=None) -> OracleResult:
    """Parse and evaluate a SELECT query the slow, obvious way."""
    parsed = parse_query(query, prefixes or DEFAULT_PREFIXES)
    rows = _group(store, parsed.where, [{}], None)
    if parsed.has_aggregates():
        rows = _aggregate(parsed, rows)
    # ORDER BY applies before projection: keys may be unselected variables.
    for variable, ascending in reversed(parsed.order_by):
        rows = sorted(rows, key=lambda row: _sort_key(row.get(str(variable))), reverse=not ascending)
    if parsed.is_select_star():
        variables: List[str] = []
        for row in rows:
            variables.extend(name for name in row if name not in variables)
    else:
        variables = [
            str(item.alias if isinstance(item, Aggregate) else item) for item in parsed.variables
        ]
    projected = [{name: to_python(row.get(name)) for name in variables} for row in rows]
    if parsed.distinct:
        seen, unique = set(), []
        for row in projected:
            key = tuple(sorted((k, str(v)) for k, v in row.items()))
            if key not in seen:
                seen.add(key)
                unique.append(row)
        projected = unique
    projected = projected[parsed.offset :] if parsed.offset else projected
    if parsed.limit is not None:
        projected = projected[: parsed.limit]
    return OracleResult(variables, projected)


def _sort_key(value: Any) -> tuple:
    value = to_python(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, value, "")
    return (1, 0, str(value))


# ---------------------------------------------------------------- patterns
def _group(store, group: GroupPattern, solutions: List[Binding], graph) -> List[Binding]:
    filters: List[FilterClause] = []
    for element in group.elements:
        if isinstance(element, TriplePattern):
            solutions = _join(store, element, solutions, graph)
        elif isinstance(element, FilterClause):
            filters.append(element)  # FILTERs scope over the whole group
        elif isinstance(element, OptionalPattern):
            extended: List[Binding] = []
            for solution in solutions:
                extended.extend(_group(store, element.group, [solution], graph) or [solution])
            solutions = extended
        elif isinstance(element, UnionPattern):
            solutions = [
                row for branch in element.branches for row in _group(store, branch, solutions, graph)
            ]
        elif isinstance(element, NamedGraphPattern):
            solutions = _named_graph(store, element, solutions)
        elif isinstance(element, BindClause):
            solutions = [
                {**solution, str(element.variable): evaluate_expression(element.expression, solution)}
                for solution in solutions
            ]
        else:  # pragma: no cover - parser only produces the above
            raise TypeError(f"unexpected group element {element!r}")
    for filter_clause in filters:
        solutions = [
            solution
            for solution in solutions
            if truth(evaluate_expression(filter_clause.expression, solution))
        ]
    return solutions


def _named_graph(store, element: NamedGraphPattern, solutions: List[Binding]) -> List[Binding]:
    if not isinstance(element.graph, Var):
        return _group(store, element.group, solutions, element.graph)
    results: List[Binding] = []
    for graph_name in store.graphs():
        seeded = [_match(element.graph, graph_name, solution) for solution in solutions]
        seeded = [binding for binding in seeded if binding is not None]
        if seeded:
            results.extend(_group(store, element.group, seeded, graph_name))
    return results


def _join(store, pattern: TriplePattern, solutions: List[Binding], graph) -> List[Binding]:
    graph_name = graph if graph is not None and not isinstance(graph, Var) else None
    results: List[Binding] = []
    for solution in solutions:
        terms = [
            solution.get(str(term), term) if isinstance(term, Var) else term
            for term in (pattern.subject, pattern.predicate, pattern.object)
        ]
        # Only fully concrete terms narrow the lookup; everything else is
        # checked match by match.
        lookup = [None if isinstance(term, (Var, QuotedPattern)) else term for term in terms]
        for triple, triple_graph in store.match(lookup[0], lookup[1], lookup[2], graph_name):
            binding: Optional[Binding] = solution
            if isinstance(graph, Var):
                binding = _match(graph, triple_graph, binding)
            for term, value in zip(terms, (triple.subject, triple.predicate, triple.object)):
                if binding is None:
                    break
                binding = _match(term, value, binding)
            if binding is not None:
                results.append(binding)
    return results


def _match(term: Any, value: Any, binding: Binding) -> Optional[Binding]:
    """Match one pattern term against a concrete value, extending the binding."""
    if isinstance(term, Var):
        bound = binding.get(str(term))
        if bound is None:
            return {**binding, str(term): value}
        return binding if bound == value else None
    if isinstance(term, QuotedPattern):
        if not isinstance(value, QuotedTriple):
            return None
        current: Optional[Binding] = binding
        for part, concrete in (
            (term.subject, value.subject),
            (term.predicate, value.predicate),
            (term.object, value.object),
        ):
            current = _match(part, concrete, current)
            if current is None:
                return None
        return current
    return binding if term == value else None


# -------------------------------------------------------------- aggregates
def _aggregate(query: SelectQuery, solutions: List[Binding]) -> List[Dict[str, Any]]:
    groups: Dict[tuple, List[Binding]] = {}
    for solution in solutions:
        # Keys are *typed* values: Literal(5) and Literal("5") are two groups.
        values = (to_python(solution.get(str(variable))) for variable in query.group_by)
        key = tuple(_NAN if isinstance(v, float) and v != v else v for v in values)
        groups.setdefault(key, []).append(solution)
    if not query.group_by and not groups:
        groups[()] = []
    rows: List[Dict[str, Any]] = []
    for members in groups.values():
        first = members[0] if members else {}
        row = {str(variable): to_python(first.get(str(variable))) for variable in query.group_by}
        for item in query.variables:
            if isinstance(item, Aggregate):
                row[str(item.alias)] = _reduce(item, members)
            elif str(item) not in row:
                row[str(item)] = to_python(first.get(str(item)))
        rows.append(row)
    return rows


def _reduce(aggregate: Aggregate, members: List[Binding]) -> Any:
    if aggregate.argument is None:
        values: List[Any] = [1] * len(members)
    else:
        name = str(aggregate.argument)
        values = [to_python(member[name]) for member in members if member.get(name) is not None]
    if aggregate.distinct:
        seen, unique = set(), []
        for value in values:
            if str(value) not in seen:
                seen.add(str(value))
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
    """Exactly rounded, so the sum does not depend on the rows' order."""
    floats = [float(value) for value in values]
    try:
        return math.fsum(floats)
    except (OverflowError, ValueError):  # infinities of both signs, overflow
        return sum(sorted(floats))
