"""Group-pattern evaluation: joins, OPTIONAL, UNION, GRAPH, BIND, FILTER.

:func:`evaluate_group` is the executor: it walks a group's (reordered)
elements and threads one :class:`~repro.sparql.columnar.Relation` of id
tuples through them.  Terms materialize only inside FILTER / BIND
expression evaluation.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sparql.algebra import (
    BindClause,
    FilterClause,
    GroupPattern,
    NamedGraphPattern,
    OptionalPattern,
    TriplePattern,
    UnionPattern,
    Var,
    expression_variables,
)
from repro.sparql.columnar import (
    UNBOUND,
    UNBOUND_ID,
    QueryContext,
    Relation,
    column_ids,
)
from repro.sparql.expression import evaluate_expression, truth
from repro.sparql.plan import (
    compile_join_plan,
    reorder_elements,
    single_filter_var,
    term_vars,
)
from repro.sparql.scan import compile_probe, scan_cost, scan_join_table

#: Scan-vs-probe crossover: one per-key index probe costs roughly this many
#: single-candidate scan steps, so scan mode is picked whenever the
#: constant-only candidate set is within this factor of the build side.
SCAN_FACTOR = 4


def evaluate_group(
    ctx: QueryContext, group: GroupPattern, relation: Relation, graph: Optional[Any]
) -> Relation:
    """Evaluate one group pattern set-at-a-time over a columnar relation.

    Triple patterns join in planner order; OPTIONAL / UNION / GRAPH / BIND
    are barriers evaluated where written.  FILTERs apply at the end of the
    group; single-variable ones are additionally pushed below the joins, as
    soon as their variable has a slot.
    """
    if not relation.rows:
        return relation
    filters: List[FilterClause] = []
    #: Single-variable filters awaiting their variable (they stay in
    #: ``filters`` too, because unbound cells can re-bind later and must be
    #: judged at group end).
    pending_push: List[Tuple[str, FilterClause]] = []
    elements = reorder_elements(
        ctx.store, group.elements, relation.decode_row(relation.rows[0], ctx.encoder), graph
    )
    current = relation
    for element in elements:
        if isinstance(element, FilterClause):
            filters.append(element)
            variable = single_filter_var(element)
            if variable is not None:
                if current.slot(variable) is not None:
                    current = _push_filter(ctx, element, variable, current)
                else:
                    pending_push.append((variable, element))
            continue
        if isinstance(element, TriplePattern):
            current = _join_pattern(ctx, element, current, graph)
        elif isinstance(element, OptionalPattern):
            current = _left_join(ctx, element.group, current, graph)
        elif isinstance(element, UnionPattern):
            current = Relation.concat(
                [evaluate_group(ctx, branch, current, graph) for branch in element.branches]
            )
        elif isinstance(element, NamedGraphPattern):
            current = _named_graph(ctx, element, current)
        elif isinstance(element, BindClause):
            current = _bind(ctx, element, current)
        else:  # pragma: no cover - parser only produces the above
            raise TypeError(f"unexpected group element {element!r}")
        if not current.rows:
            break
        if pending_push:
            waiting: List[Tuple[str, FilterClause]] = []
            for variable, filter_clause in pending_push:
                if current.slot(variable) is not None:
                    current = _push_filter(ctx, filter_clause, variable, current)
                else:
                    waiting.append((variable, filter_clause))
            pending_push = waiting
            if not current.rows:
                break
    if filters and current.rows:
        current = _filter_rows(ctx, filters, current)
    return current


# -------------------------------------------------------------- triple join
def _join_pattern(
    ctx: QueryContext, pattern: TriplePattern, relation: Relation, graph: Optional[Any]
) -> Relation:
    """Hash-join one triple pattern into the accumulated relation.

    Build side: the relation rows, keyed by the ids of the variables
    shared with the pattern.  The probe side picks one of two compiled
    strategies by cost:

    * **scan mode** — when the pattern's constant-bound candidate set is
      no larger than the build side, scan it once into a hash table
      ``join key -> extension tuples`` and join every row with a dict
      get.  One index pass total, classic hash join.
    * **probe mode** — otherwise, one direct index lookup per *distinct*
      key (memoized in one dict per join), which wins when per-row bindings
      narrow candidates far below the constant-only set.

    Extensions are precomputed id tuples concatenated onto rows — no
    per-row dicts, no term decoding.  One compiled plan
    (:func:`~repro.sparql.plan.compile_join_plan`) serves every pattern the
    parser accepts: constants and variables in any position, a quoted
    subject, a variable repeated in the pattern (its later positions are
    checked equal to its first), and ``GRAPH ?g`` (``graph`` is the
    variable), where the pattern is matched across every named graph at
    once and the graph id is one more join key or extension cell.  Rows
    whose shared cell an OPTIONAL left unbound join in
    :func:`_join_unbound_keys`.
    """
    graph_var = str(graph) if isinstance(graph, Var) else None

    # Pattern variables in binding order: the graph variable first, then
    # subject / predicate / object (quoted-pattern inner variables recurse
    # in the same order).
    ordered_vars: List[str] = [graph_var] if graph_var is not None else []
    for term in (pattern.subject, pattern.predicate, pattern.object):
        term_vars(term, ordered_vars)

    key_names: List[str] = []
    key_slots: List[int] = []
    new_vars: List[str] = []
    for name in ordered_vars:
        slot = relation.slot(name)
        if slot is not None:
            if name not in key_names:
                key_names.append(name)
                key_slots.append(slot)
        elif name not in new_vars:
            new_vars.append(name)

    plan = compile_join_plan(ctx, pattern, key_names, new_vars, graph)
    rows = relation.rows
    out_rows: List[tuple] = []
    append = out_rows.append
    if len(key_slots) > 1:  # ``row -> key tuple`` at C speed
        key_of = itemgetter(*key_slots)
    else:
        key_of = lambda row: tuple(row[slot] for slot in key_slots)  # noqa: E731
    #: Rows with an OPTIONAL-unbound key cell: that variable binds from the
    #: match.
    unbound_rows: List[tuple] = []

    if key_names and scan_cost(plan) <= SCAN_FACTOR * len(rows):
        table_get = scan_join_table(ctx, plan).get
        if len(key_slots) == 1:
            only_slot = key_slots[0]
            for row in rows:
                cell = row[only_slot]
                if cell is None:
                    unbound_rows.append(row)
                    continue
                extensions = table_get(cell)
                if extensions:
                    for extension in extensions:
                        append(row + extension if extension else row)
        else:
            for row in rows:
                key = key_of(row)
                if None in key:
                    unbound_rows.append(row)
                    continue
                extensions = table_get(key)
                if extensions:
                    for extension in extensions:
                        append(row + extension if extension else row)
    else:
        memo: Dict[tuple, List[tuple]] = {}
        probe = compile_probe(ctx, plan)
        for row in rows:
            key = key_of(row)
            if None in key:
                unbound_rows.append(row)
                continue
            extensions = memo.get(key)
            if extensions is None:
                extensions = memo[key] = probe(key)
            for extension in extensions:
                append(row + extension if extension else row)
        ctx.count("pattern_memo", len(rows) - len(unbound_rows), len(memo))
    layout = relation.variables + tuple(new_vars)
    if unbound_rows:
        out_rows += _join_unbound_keys(
            ctx, pattern, relation, unbound_rows, key_slots, graph, layout
        )
    return Relation(layout, out_rows)


def _join_unbound_keys(
    ctx: QueryContext,
    pattern: TriplePattern,
    relation: Relation,
    rows: List[tuple],
    key_slots: List[int],
    graph: Optional[Any],
    layout: Tuple[str, ...],
) -> List[tuple]:
    """Join the rows whose key cells an OPTIONAL left unbound, in ``layout``.

    The rows split by which key cells are unbound.  Each group joins as a
    relation without those slots, so its plan moves the unbound names from
    the key to the picks under the same scan-vs-probe choice and probe memo;
    each match's ids then fill the row's unbound slots.
    """
    groups: Dict[Tuple[int, ...], List[tuple]] = {}
    for row in rows:
        groups.setdefault(tuple(slot for slot in key_slots if row[slot] is None), []).append(row)
    out_rows: List[tuple] = []
    for unbound, group in groups.items():
        kept = [slot for slot in range(len(relation.variables)) if slot not in unbound]
        joined = _join_pattern(
            ctx,
            pattern,
            Relation(
                tuple(relation.variables[slot] for slot in kept),
                [tuple(row[slot] for slot in kept) for row in group],
            ),
            graph,
        )
        order = [joined.slot(name) for name in layout]
        out_rows.extend(tuple(row[slot] for slot in order) for row in joined.rows)
    return out_rows


# ------------------------------------------------------------------ barriers
def _left_join(
    ctx: QueryContext, group: GroupPattern, relation: Relation, graph: Optional[Any]
) -> Relation:
    """OPTIONAL: rows extend when the group matches, survive unbound otherwise.

    A hidden provenance column threads each input row through the group
    evaluation, so the whole OPTIONAL body runs set-at-a-time instead of
    once per row.
    """
    provenance = ctx.provenance_column()
    seeded = Relation(
        relation.variables + (provenance,),
        [row + (position,) for position, row in enumerate(relation.rows)],
    )
    result = evaluate_group(ctx, group, seeded, graph)
    provenance_slot = result.slot(provenance)
    keep = [slot for slot, name in enumerate(result.variables) if name != provenance]
    out_variables = tuple(name for name in result.variables if name != provenance)
    extended_by_row: Dict[int, List[tuple]] = {}
    for row in result.rows:
        extended_by_row.setdefault(row[provenance_slot], []).append(
            tuple(row[slot] for slot in keep)
        )
    padding = (UNBOUND,) * (len(out_variables) - len(relation.variables))
    out_rows: List[tuple] = []
    for position, row in enumerate(relation.rows):
        extended = extended_by_row.get(position)
        if extended:
            out_rows.extend(extended)
        else:
            out_rows.append(row + padding)
    return Relation(out_variables, out_rows)


def _named_graph(
    ctx: QueryContext, element: NamedGraphPattern, relation: Relation
) -> Relation:
    """``GRAPH <name> { … }`` / ``GRAPH ?g { … }``: the group, scoped.

    A graph variable does not loop over the graphs: the group is planned and
    evaluated once with the variable as its scope, and every pattern in it
    joins on — or, for the first one, binds — the id of the graph its match
    sits in.  Only a group that does not open with a triple pattern (empty,
    or led by OPTIONAL / UNION / BIND / a nested GRAPH) needs ``?g`` bound
    before it runs, one row per named graph.
    """
    graph = element.graph
    if isinstance(graph, Var):
        leading = next(
            (item for item in element.group.elements if not isinstance(item, FilterClause)), None
        )
        if not isinstance(leading, TriplePattern):
            relation = _seed_graphs(ctx, str(graph), relation)
    return evaluate_group(ctx, element.group, relation, graph)


def _seed_graphs(ctx: QueryContext, name: str, relation: Relation) -> Relation:
    """Bind ``name`` to every named graph: unbound rows fan out graph-major,
    rows already bound survive when their value names a graph."""
    graph_ids = [ctx.encoder.encode(graph_name) for graph_name in ctx.store.graphs()]
    slot = relation.slot(name)
    if slot is None:
        return Relation(
            relation.variables + (name,),
            [row + (graph_id,) for graph_id in graph_ids for row in relation.rows],
        )
    rows: List[tuple] = []
    for graph_id in graph_ids:
        for row in relation.rows:
            if row[slot] == graph_id:
                rows.append(row)
            elif row[slot] is UNBOUND:
                rows.append(row[:slot] + (graph_id,) + row[slot + 1 :])
    return Relation(relation.variables, rows)


def _row_binder(ctx: QueryContext, relation: Relation, names: set):
    """``row -> binding dict`` decoding only the variables in ``names``."""
    slots = [
        (name, relation.slot(name)) for name in names if relation.slot(name) is not None
    ]
    decode = ctx.encoder.decode
    return lambda row: {
        name: decode(row[slot]) for name, slot in slots if row[slot] is not UNBOUND
    }


def _bind(ctx: QueryContext, element: BindClause, relation: Relation) -> Relation:
    name = str(element.variable)
    binding_of = _row_binder(ctx, relation, expression_variables(element.expression))
    target = relation.slot(name)
    encode = ctx.encoder.encode
    out_rows: List[tuple] = []
    for row in relation.rows:
        value = evaluate_expression(element.expression, binding_of(row))
        cell = encode(value) if value is not None else UNBOUND
        if target is None:
            out_rows.append(row + (cell,))
        else:
            cells = list(row)
            cells[target] = cell
            out_rows.append(tuple(cells))
    variables = relation.variables if target is not None else relation.variables + (name,)
    return Relation(variables, out_rows)


# ------------------------------------------------------------------ filters
def _push_filter(
    ctx: QueryContext,
    filter_clause: FilterClause,
    variable: str,
    relation: Relation,
    final: bool = False,
) -> Relation:
    """Apply a single-variable FILTER via a memoized id verdict table.

    The predicate evaluates once per *distinct id* (memoized across the
    query in the clause's verdict table), then the verdicts broadcast over
    the rows with one numpy gather.  Mid-group (``final=False``) rows
    with an unbound cell always survive — a later pattern may still bind
    the shared variable (OPTIONAL padding re-binds), and the group-end
    pass re-checks them; at group end (``final=True``) unbound cells are
    judged with the variable absent from the binding.
    """
    rows = relation.rows
    if not rows:
        return relation
    expression = filter_clause.expression
    slot = relation.slot(variable)
    if slot is None:
        if not final or truth(evaluate_expression(expression, {})):
            return relation
        return Relation(relation.variables, [])
    table = ctx.filter_verdicts.setdefault(id(filter_clause), {})
    known = len(table)
    decode = ctx.encoder.decode
    distinct, inverse = np.unique(column_ids(rows, slot), return_inverse=True)
    verdicts = np.empty(len(distinct), bool)
    lookups = 0
    for position, term_id in enumerate(distinct.tolist()):
        if term_id == UNBOUND_ID:
            verdicts[position] = (
                truth(evaluate_expression(expression, {})) if final else True
            )
            continue
        lookups += 1
        verdict = table.get(term_id)
        if verdict is None:
            verdict = table[term_id] = truth(
                evaluate_expression(expression, {variable: decode(term_id)})
            )
        verdicts[position] = verdict
    ctx.count("filter_memo", lookups, len(table) - known)
    keep = verdicts[inverse]
    if keep.all():
        return relation
    return Relation(relation.variables, list(compress(rows, keep.tolist())))


def _filter_rows(
    ctx: QueryContext, filters: List[FilterClause], relation: Relation
) -> Relation:
    """Apply the group's deferred FILTERs.

    Single-variable filters run through the memoized id verdict tables
    (shared with any mid-group pushdown of the same clause, so re-checking
    surviving rows is pure cache hits); multi-variable filters decode only
    the variables they reference, row by row.
    """
    remaining: List[FilterClause] = []
    for filter_clause in filters:
        variable = single_filter_var(filter_clause)
        if variable is None:
            remaining.append(filter_clause)
            continue
        relation = _push_filter(ctx, filter_clause, variable, relation, final=True)
        if not relation.rows:
            return relation
    if not remaining:
        return relation
    needed: set = set()
    for filter_clause in remaining:
        needed |= expression_variables(filter_clause.expression)
    binding_of = _row_binder(ctx, relation, needed)
    out_rows: List[tuple] = []
    for row in relation.rows:
        binding = binding_of(row)
        if all(
            truth(evaluate_expression(filter_clause.expression, binding))
            for filter_clause in remaining
        ):
            out_rows.append(row)
    return Relation(relation.variables, out_rows)
