"""Query planning: pattern reordering, cost estimates, compiled join plans.

Nothing here touches solution rows.  :func:`reorder_elements` decides the
order a group's triple patterns join in, from the store's live cardinality
statistics; :func:`compile_join_plan` resolves one pattern against the
accumulated relation's layout into the plain data (:class:`JoinPlan`) that
``scan`` turns into a hash table or a per-key probe — the one way a triple
pattern joins.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.rdf.terms import QuotedTriple, URIRef
from repro.sparql.algebra import (
    BindClause,
    FilterClause,
    QuotedPattern,
    TriplePattern,
    Var,
    expression_variables,
)
from repro.sparql.columnar import QueryContext
from repro.sparql.expression import Binding
from repro.sparql.parser import SPARQLSyntaxError

#: Fallback selectivity discount per bound-but-value-unknown term, used only
#: when the store has no cardinality statistics for the predicate.
UNKNOWN_BOUND_DISCOUNT = 8.0

#: Source kinds of a compiled join plan position.
SRC_CONST = 0
SRC_KEY = 1
SRC_FREE = 2

#: ``(source kind, constant id | key position | None)``.
Source = Tuple[int, Optional[int]]
#: Where an output id comes from in a match: a triple slot ``('t', 0..2)``,
#: the id of the graph the triple sits in (``GRAPH_PICK``, a fourth
#: positional slot present only under ``GRAPH ?g``) or a quoted-subject part
#: ``('q', 0..2)``.
Pick = Tuple[str, int]
GRAPH_PICK: Pick = ("t", 3)


class JoinPlan(NamedTuple):
    """One triple pattern resolved against a relation layout.

    Everything that does not depend on the join key is hoisted here —
    constant term ids, the resolved graph indexes, the extension and key
    pick plans — so a scan is one pass building the join hash table and each
    probe is a candidate-set selection plus a tight filter loop.
    """

    sources: Tuple[Source, Source, Source]
    quoted_sources: Optional[List[Source]]
    indexes: List[Any]
    #: Parallel to ``indexes``: ``(graph-name id,)`` under ``GRAPH ?g``, else
    #: ``()`` — ``triple + tail`` is what the picks index, so the graph id
    #: sits in slot 3 (:data:`GRAPH_PICK`) exactly when a variable reads it.
    tails: List[tuple]
    #: Key position of the graph variable when the relation already binds it.
    graph_key: Optional[int]
    key_picks: List[Pick]
    picks: List[Pick]
    #: ``(first pick, later pick)`` of each variable repeated in the
    #: pattern: a match is kept only where both read one id.  Empty for
    #: every pattern without a repeated variable.
    checks: List[Tuple[Pick, Pick]]

    def constants(self) -> Tuple[Optional[int], Optional[int], Optional[int]]:
        """The constant subject / predicate / object ids (``None`` = not constant)."""
        return tuple(  # type: ignore[return-value]
            value if mode == SRC_CONST else None for mode, value in self.sources
        )

    def quoted_constants(self) -> Optional[Tuple[Optional[int], ...]]:
        """Constant inner ids of a quoted subject (``None`` for plain subjects)."""
        if self.quoted_sources is None:
            return None
        return tuple(
            value if mode == SRC_CONST else None for mode, value in self.quoted_sources
        )


# ------------------------------------------------------------------ explain
def describe_element(element: Any) -> str:
    if isinstance(element, TriplePattern):
        return " ".join(
            describe_term(term)
            for term in (element.subject, element.predicate, element.object)
        )
    if isinstance(element, FilterClause):
        variable = single_filter_var(element)
        if variable is not None:
            return f"FilterClause [pushdown ?{variable}]"
    return type(element).__name__


def describe_term(term: Any) -> str:
    if isinstance(term, Var):
        return f"?{term}"
    if isinstance(term, QuotedPattern):
        inner = " ".join(
            describe_term(part) for part in (term.subject, term.predicate, term.object)
        )
        return f"<< {inner} >>"
    if isinstance(term, URIRef):
        return term.n3()
    return str(term)


def single_filter_var(filter_clause: FilterClause) -> Optional[str]:
    """The filter's only variable, when it reads exactly one.

    Such filters are pushed below the joins: each evaluates once per
    distinct id against a memoized verdict table.
    """
    names = expression_variables(filter_clause.expression)
    if len(names) == 1:
        return next(iter(names))
    return None


# ------------------------------------------------------------------ reorder
def reorder_elements(
    store: Any, elements: List[Any], representative: Binding, graph: Optional[Any]
) -> List[Any]:
    """Greedily reorder triple patterns by estimated selectivity.

    Only maximal runs of triple patterns are permuted; OPTIONAL / UNION /
    GRAPH / BIND elements act as barriers because their semantics depend
    on what is already joined.  FILTERs are order-insensitive here (they
    are deferred to the end of the group) so they pass through runs.

    ``representative`` is one incoming binding: bound variables whose value
    it carries can be estimated against the real indexes instead of being
    discounted heuristically.
    """
    bound: set = set(representative)
    graph_name = graph if graph is not None and not isinstance(graph, Var) else None
    reordered: List[Any] = []
    run: List[TriplePattern] = []

    def ordering_cost(pattern: TriplePattern) -> Tuple[int, int, float]:
        # A pattern sharing no variable with what is already bound would
        # cross-join the accumulated solutions; schedule every connected
        # pattern (however expensive) ahead of it.
        names = pattern_vars(pattern)
        disconnected = int(bool(bound) and bool(names) and not (names & bound))
        return (disconnected, *pattern_cost(store, pattern, bound, representative, graph_name))

    def flush_run() -> None:
        nonlocal run
        remaining = list(run)
        while remaining:
            best = min(range(len(remaining)), key=lambda k: ordering_cost(remaining[k]))
            pattern = remaining.pop(best)
            reordered.append(pattern)
            bound.update(pattern_vars(pattern))
        run = []

    for element in elements:
        if isinstance(element, TriplePattern):
            run.append(element)
        elif isinstance(element, FilterClause):
            reordered.append(element)
        else:
            flush_run()
            reordered.append(element)
            if isinstance(element, BindClause):
                bound.add(str(element.variable))
    flush_run()
    return reordered


def pattern_cost(
    store: Any,
    pattern: TriplePattern,
    bound: set,
    representative: Binding,
    graph_name: Optional[Any],
) -> Tuple[int, float]:
    """``(unbound variable count, match estimate)`` — lower is cheaper.

    Constant terms — and bound variables whose value the representative
    binding carries — are estimated against the real index sizes.  A term
    that will be bound at evaluation time but whose value is unknown yet
    (it is bound by an earlier pattern in the plan) still restricts
    matches; when the predicate is known its live cardinality statistics
    give the real expected fan-out (``count / distinct_subjects`` for a
    bound subject, ``count / distinct_objects`` for a bound object),
    falling back to a fixed discount otherwise.
    """
    free = 0
    quoted_unknown_bound = 0
    unknown_positions: List[str] = []
    lookup: List[Any] = []
    for position, term in zip(
        ("subject", "predicate", "object"),
        (pattern.subject, pattern.predicate, pattern.object),
    ):
        if isinstance(term, Var):
            name = str(term)
            if name in representative:
                lookup.append(representative[name])
            elif name in bound:
                unknown_positions.append(position)
                lookup.append(None)
            else:
                free += 1
                lookup.append(None)
        elif isinstance(term, QuotedPattern):
            unresolved = [name for name in pattern_vars(term) if name not in representative]
            free += sum(1 for name in unresolved if name not in bound)
            quoted_unknown_bound += sum(1 for name in unresolved if name in bound)
            lookup.append(_resolve_quoted(term, representative) if not unresolved else None)
        else:
            lookup.append(term)
    estimate = _base_estimate(store, pattern, lookup, representative, graph_name)
    statistics = (
        store.predicate_statistics(lookup[1], graph_name)
        if unknown_positions and lookup[1] is not None
        else None
    )
    for position in unknown_positions:
        divisor = UNKNOWN_BOUND_DISCOUNT
        if statistics and statistics["count"] > 0:
            distinct = statistics[
                "distinct_subjects" if position == "subject" else "distinct_objects"
            ]
            divisor = max(1.0, float(distinct))
        estimate /= divisor
    estimate /= UNKNOWN_BOUND_DISCOUNT**quoted_unknown_bound
    return (free, estimate)


def _base_estimate(
    store: Any,
    pattern: TriplePattern,
    lookup: List[Any],
    representative: Binding,
    graph_name: Optional[Any],
) -> float:
    """Index-size estimate for the resolvable part of a pattern."""
    if lookup[0] is None and isinstance(pattern.subject, QuotedPattern):
        parts = _quoted_lookup_parts(pattern.subject, representative)
        if parts is not None:
            return float(
                store.estimate_quoted_matches(
                    parts[0], parts[2], lookup[1], lookup[2], graph_name
                )
            )
    return float(store.estimate_matches(lookup[0], lookup[1], lookup[2], graph_name))


def _quoted_lookup_parts(
    pattern: QuotedPattern, binding: Binding
) -> Optional[Tuple[Any, Any, Any]]:
    """Concrete inner terms of a quoted pattern (``None`` = wildcard).

    Each part is resolved against the binding where possible; returns
    ``None`` when no part is concrete (a fully unbound quoted pattern gains
    nothing from the partial quoted-triple index).
    """
    parts: List[Any] = []
    for part in (pattern.subject, pattern.predicate, pattern.object):
        value = part
        if isinstance(part, Var):
            value = binding.get(str(part))
        parts.append(value)
    if all(part is None for part in parts):
        return None
    return tuple(parts)


def _resolve_quoted(pattern: QuotedPattern, binding: Binding) -> Optional[QuotedTriple]:
    """A concrete :class:`QuotedTriple` if every part is bound, else ``None``."""
    parts = []
    for part in (pattern.subject, pattern.predicate, pattern.object):
        value = part
        if isinstance(part, Var):
            value = binding.get(str(part))
            if value is None:
                return None
        parts.append(value)
    return QuotedTriple(*parts)


def term_vars(term: Any, ordered: List[str]) -> None:
    """Append a pattern term's variable names in binding order."""
    if isinstance(term, Var):
        ordered.append(str(term))
    elif isinstance(term, QuotedPattern):
        for part in (term.subject, term.predicate, term.object):
            term_vars(part, ordered)


def pattern_vars(pattern: Union[TriplePattern, QuotedPattern]) -> set:
    names: List[str] = []
    for term in (pattern.subject, pattern.predicate, pattern.object):
        term_vars(term, names)
    return set(names)


# ---------------------------------------------------------------- join plan
def compile_join_plan(
    ctx: QueryContext,
    pattern: TriplePattern,
    key_names: List[str],
    new_vars: List[str],
    graph: Optional[Any],
) -> JoinPlan:
    """Resolve one pattern join into a :class:`JoinPlan`.

    ``key_names`` are the variables the relation binds (read from the join
    key), ``new_vars`` the ones a match binds (picked from it).  ``graph`` is
    the enclosing ``GRAPH`` name, a :class:`Var` for ``GRAPH ?g`` (the plan
    then spans every named graph and carries each one's id as a fourth
    positional slot the variable joins on or binds from), or ``None`` for
    the default graph.  The plan serves every pattern the parser accepts:

    * constants and variables in subject, predicate and object position;
    * a quoted subject ``<< s p o >>`` of constants and variables;
    * a variable repeated in the pattern (``?g`` included): a key variable
      reads the key at every position; a new one is picked at its first
      position and checked equal at each later one (:attr:`JoinPlan.checks`).

    A quoted pattern anywhere else (off the subject, or nested) raises
    :class:`SPARQLSyntaxError`, as it does in a query text.
    """
    encoder = ctx.encoder
    key_positions = {name: index for index, name in enumerate(key_names)}

    def source_of(term) -> Source:
        if isinstance(term, QuotedPattern):
            raise SPARQLSyntaxError(
                f"quoted triple pattern outside subject position: {describe_element(pattern)}"
            )
        if isinstance(term, Var):
            position = key_positions.get(str(term))
            return (SRC_KEY, position) if position is not None else (SRC_FREE, None)
        return (SRC_CONST, encoder.encode(term))

    subject, predicate, obj = pattern.subject, pattern.predicate, pattern.object
    quoted_sources: Optional[List[Source]] = None
    subject_source: Source = (SRC_FREE, None)
    if isinstance(subject, QuotedPattern):
        quoted_sources = [
            source_of(part) for part in (subject.subject, subject.predicate, subject.object)
        ]
    else:
        subject_source = source_of(subject)
    sources = (subject_source, source_of(predicate), source_of(obj))

    # Every variable occurrence, in binding order: the graph variable, then
    # subject / predicate / object, then the quoted subject's parts.
    occurrences: List[Tuple[str, Pick]] = []
    if isinstance(graph, Var):
        occurrences.append((str(graph), GRAPH_PICK))
        named = ctx.store.backend.items()
        indexes = [index for _, index in named]
        tails = [(encoder.encode(name),) for name, _ in named]
    else:
        indexes = ctx.store.backend.indexes_for(graph)
        tails = [()] * len(indexes)
    for position, term in enumerate((subject, predicate, obj)):
        if isinstance(term, Var):
            occurrences.append((str(term), ("t", position)))
    if quoted_sources is not None:
        for part_index, part in enumerate(
            (subject.subject, subject.predicate, subject.object)
        ):
            if isinstance(part, Var):
                occurrences.append((str(part), ("q", part_index)))
    first_positions: Dict[str, Pick] = {}
    checks: List[Tuple[Pick, Pick]] = []
    for name, pick in occurrences:
        first = first_positions.setdefault(name, pick)
        if first != pick:
            checks.append((first, pick))
    return JoinPlan(
        sources=sources,
        quoted_sources=quoted_sources,
        indexes=indexes,
        tails=tails,
        graph_key=key_positions.get(str(graph)) if isinstance(graph, Var) else None,
        key_picks=[first_positions[name] for name in key_names],
        picks=[first_positions[name] for name in new_vars],
        checks=checks,
    )
