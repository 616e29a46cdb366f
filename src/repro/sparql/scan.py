"""Index access for one triple pattern: scan tables, id-array feeds, probes.

The two strategies a compiled :class:`~repro.sparql.plan.JoinPlan` can run
with — :func:`scan_join_table` (one constant-only index pass hashed by the
join key) and :func:`compile_probe` (one index lookup per distinct key) —
plus :func:`probe_pattern`, the general per-key walk for shapes and rows the
compiled plans do not cover.  Everything stays in id space.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sparql.algebra import QuotedPattern, TriplePattern, Var
from repro.sparql.columnar import QueryContext, QueryEncoder
from repro.sparql.plan import GRAPH_PICK, SRC_CONST, SRC_KEY, JoinPlan, Pick

JoinTable = Dict[Any, List[tuple]]


def compile_picker(picks: List[Pick]) -> Callable[[tuple, Optional[tuple]], tuple]:
    """``(triple, parts) -> id tuple`` without generator frames.

    The returned callable runs once per candidate match, so the common
    arities are unrolled.
    """
    selectors = [(kind == "q", position) for kind, position in picks]
    if not selectors:
        return lambda triple, parts: ()
    if len(selectors) == 1:
        (q0, p0), = selectors
        return lambda triple, parts: ((parts if q0 else triple)[p0],)
    if len(selectors) == 2:
        (q0, p0), (q1, p1) = selectors
        return lambda triple, parts: (
            (parts if q0 else triple)[p0],
            (parts if q1 else triple)[p1],
        )
    if len(selectors) == 3:
        (q0, p0), (q1, p1), (q2, p2) = selectors
        return lambda triple, parts: (
            (parts if q0 else triple)[p0],
            (parts if q1 else triple)[p1],
            (parts if q2 else triple)[p2],
        )
    return lambda triple, parts: tuple(
        (parts if quoted else triple)[position] for quoted, position in selectors
    )


def _filtered_candidates(index, subject_id, predicate_id, object_id):
    """Smallest candidate set for the bound ids; ``None`` = no hits."""
    candidates = index.triples
    if subject_id is not None:
        candidates = index.by_subject.get(subject_id)
        if not candidates:
            return None
    if predicate_id is not None:
        alternative = index.by_predicate.get(predicate_id)
        if not alternative:
            return None
        if len(alternative) < len(candidates):
            candidates = alternative
    if object_id is not None:
        alternative = index.by_object.get(object_id)
        if not alternative:
            return None
        if len(alternative) < len(candidates):
            candidates = alternative
    return candidates


def _matches(index, subject_id, predicate_id, object_id, inner, quoted_parts):
    """``(triple, parts)`` for each triple of ``index`` under the bound ids,
    in the candidate set's iteration order.

    ``inner`` holds a quoted subject's bound inner ids (``None`` where
    unbound), or is ``None`` when the subject is matched by id alone.  With
    ``quoted_parts`` (the dictionary's) each candidate's subject parts are
    read and checked against ``inner``, and a subject that is no quoted
    triple does not match; without it (a plain subject) ``parts`` is ``None``.
    """
    if inner is None:
        candidates = _filtered_candidates(index, subject_id, predicate_id, object_id)
        if candidates is None:
            return
        inner = (None, None, None)
    else:
        candidates = index._quoted_candidates(inner[0], inner[2], predicate_id, object_id)
    inner_s, inner_p, inner_o = inner
    for triple in candidates:
        if subject_id is not None and triple[0] != subject_id:
            continue
        if predicate_id is not None and triple[1] != predicate_id:
            continue
        if object_id is not None and triple[2] != object_id:
            continue
        if quoted_parts is None:
            yield triple, None
            continue
        parts = quoted_parts(triple[0])
        if parts is None:
            continue
        if (
            (inner_s is not None and parts[0] != inner_s)
            or (inner_p is not None and parts[1] != inner_p)
            or (inner_o is not None and parts[2] != inner_o)
        ):
            continue
        yield triple, parts


# --------------------------------------------------------------- scan mode
def scan_cost(plan: JoinPlan) -> float:
    """Upper bound on the candidates a constant-only scan would touch."""
    subject_id, predicate_id, object_id = plan.constants()
    inner = plan.quoted_constants()
    total = 0
    for index in plan.indexes:
        if inner is not None:
            total += index.estimate_quoted(inner[0], inner[2], predicate_id, object_id)
        else:
            total += index.estimate(subject_id, predicate_id, object_id)
    return total


def scan_join_table(ctx: QueryContext, plan: JoinPlan) -> JoinTable:
    """One constant-only index pass, hashed by the join-key variables.

    The build side of scan-mode hash join: maps a join key (the bare id
    for single-variable keys, an id tuple otherwise) to the list of
    extension tuples its matches produce.
    """
    subject_id, predicate_id, object_id = plan.constants()
    inner = plan.quoted_constants()
    if inner is None and subject_id is None and object_id is None:
        return _scan_table_arrays(plan, predicate_id)

    # A constant subject or object, or a quoted subject: candidates come
    # from the smallest constant-bound index entry.
    quoted_parts = None if inner is None else ctx.store.dictionary.quoted_parts
    if len(plan.key_picks) == 1:
        (kind, position), = plan.key_picks
        quoted = kind == "q"
        key_of = lambda triple, parts: (parts if quoted else triple)[position]  # noqa: E731
    else:
        key_of = compile_picker(plan.key_picks)
    ext_picker = compile_picker(plan.picks)
    table: JoinTable = {}
    for index, tail in zip(plan.indexes, plan.tails):
        for triple, parts in _matches(
            index, subject_id, predicate_id, object_id, inner, quoted_parts
        ):
            triple += tail
            key = key_of(triple, parts)
            extension = ext_picker(triple, parts)
            bucket = table.get(key)
            if bucket is None:
                table[key] = [extension]
            else:
                bucket.append(extension)
    return table


#: One graph's scan candidates: ``(tail, positional s/p/o columns)``.
Block = Tuple[tuple, tuple]


def _hash_blocks(plan: JoinPlan, blocks: List[Block]) -> JoinTable:
    """Hash the graphs' candidate blocks into one join table.

    Every picked column is stitched across the blocks first, so a pattern
    under ``GRAPH ?g`` costs one hash pass however many graphs it spans —
    the graph id is just one more column (:data:`GRAPH_PICK`).  Blocks keep
    their order and rows their order within a block, which keeps
    row-order-sensitive results (GROUP BY representatives, unordered
    result rows) reproducible.
    """
    table: JoinTable = {}
    if not blocks:
        return table

    def column(pick: Pick) -> np.ndarray:
        if pick == GRAPH_PICK:
            return np.repeat(
                np.array([tail[0] for tail, _ in blocks], np.int64),
                [len(positional[0]) for _, positional in blocks],
            )
        pieces = [positional[pick[1]] for _, positional in blocks]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    # One C-level ``tolist`` per column, so the per-candidate work is just
    # the hash-table insert.
    key_lists = [column(pick).tolist() for pick in plan.key_picks]
    keys = key_lists[0] if len(key_lists) == 1 else zip(*key_lists)
    extensions = (
        zip(*(column(pick).tolist() for pick in plan.picks)) if plan.picks else repeat(())
    )
    for key, extension in zip(keys, extensions):
        bucket = table.get(key)
        if bucket is None:
            table[key] = [extension]
        else:
            bucket.append(extension)
    return table


def _scan_table_arrays(plan: JoinPlan, predicate_id: Optional[int]) -> JoinTable:
    """Array-fed scan-table build for whole-graph / predicate-bucket scans.

    Candidates arrive as int64 id arrays from the index's
    :class:`~repro.rdf.graph_index.TripleColumns` snapshot instead of
    per-triple set iteration.  Restricted to the two shapes where the array
    order equals the set iteration order, which keeps row-order-sensitive
    results (GROUP BY representatives, unordered result rows) reproducible.
    """
    blocks: List[Block] = []
    for index, tail in zip(plan.indexes, plan.tails):
        columns = index.columnar()
        if predicate_id is None:
            positional = (columns.subjects, columns.predicates, columns.objects)
        else:
            bucket = index.by_predicate.get(predicate_id)
            if not bucket:
                continue
            if len(bucket) < len(index.triples):
                subjects, objects = columns.predicate_rows(predicate_id, index)
            else:
                # The bucket covers the whole graph: keep the master
                # array order (what set iteration would have yielded).
                subjects, objects = columns.subjects, columns.objects
            positional = (subjects, None, objects)
        if len(positional[0]):
            blocks.append((tail, positional))
    return _hash_blocks(plan, blocks)


# -------------------------------------------------------------- probe mode
def compile_probe(ctx: QueryContext, plan: JoinPlan) -> Callable[[tuple], List[tuple]]:
    """``join key -> extension tuples`` by direct index lookup.

    The key carries no :data:`~repro.sparql.columnar.UNBOUND` cells (the
    join routes those rows to :func:`probe_pattern`).
    """
    (s_mode, s_value), (p_mode, p_value), (o_mode, o_value) = plan.sources
    quoted_sources = plan.quoted_sources
    scope = list(zip(plan.indexes, plan.tails))
    graph_key = plan.graph_key
    if graph_key is not None:
        # ``?g`` arrives bound in the key: each probe reads one graph.
        scope_of = {tail[0]: [(index, ())] for index, tail in scope}
    ext_picker = compile_picker(plan.picks)
    quoted_parts = None if quoted_sources is None else ctx.store.dictionary.quoted_parts
    quoted_id = ctx.encoder.quoted_id

    def probe(key: tuple) -> List[tuple]:
        predicate_id = (
            p_value if p_mode == SRC_CONST else key[p_value] if p_mode == SRC_KEY else None
        )
        object_id = (
            o_value if o_mode == SRC_CONST else key[o_value] if o_mode == SRC_KEY else None
        )
        inner = None
        if quoted_sources is None:
            subject_id = (
                s_value if s_mode == SRC_CONST else key[s_value] if s_mode == SRC_KEY else None
            )
        else:
            inner = tuple(
                value if mode == SRC_CONST else key[value] if mode == SRC_KEY else None
                for mode, value in quoted_sources
            )
            if None not in inner:
                subject_id = quoted_id(inner)
                if subject_id is None:
                    return []
                inner = None  # exact id lookup; no structural filtering
            else:
                subject_id = None
        results: List[tuple] = []
        append = results.append
        for index, tail in scope if graph_key is None else scope_of.get(key[graph_key], ()):
            for triple, parts in _matches(
                index, subject_id, predicate_id, object_id, inner, quoted_parts
            ):
                append(ext_picker(triple + tail, parts))
        return results

    return probe


# ------------------------------------------------------------ general walk
def probe_pattern(
    ctx: QueryContext,
    pattern: TriplePattern,
    bind: Dict[str, Optional[int]],
    graph_var: Optional[str],
    graph_name: Optional[Any],
    new_vars: List[str],
) -> List[Tuple[tuple, tuple]]:
    """All pattern matches under one join key, as ``(updates, extension)``.

    ``extension`` carries the ids of the pattern's new variables (in
    ``new_vars`` order); ``updates`` re-binds shared variables whose cell
    was unbound in this key (OPTIONAL padding), as ``(name, id)`` pairs.
    The result is shared by every build row in the key's group — the
    memoized unit of work.
    """
    encoder = ctx.encoder
    store = ctx.store
    # Shared variables that are unbound *in this key* bind from the match.
    unbound_shared = [name for name, value in bind.items() if value is None]

    lookup_graph = graph_name
    if graph_var is not None and bind.get(graph_var) is not None:
        lookup_graph = encoder.decode(bind[graph_var])
    capture_graph = graph_var is not None and bind.get(graph_var) is None

    subject = pattern.subject
    predicate = pattern.predicate
    obj = pattern.object
    quoted_lookup: Optional[Tuple[Optional[int], Optional[int], Optional[int]]] = None
    if isinstance(subject, Var):
        subject_id = bind.get(str(subject))
    elif isinstance(subject, QuotedPattern):
        parts = _resolve_quoted_ids(subject, bind, encoder)
        if None not in parts:
            subject_id = encoder.quoted_id(parts)  # type: ignore[arg-type]
            if subject_id is None:
                return []
        elif any(part is not None for part in parts):
            subject_id = None
            quoted_lookup = parts
        else:
            subject_id = None
    else:
        subject_id = encoder.encode(subject)
    predicate_id = (
        bind.get(str(predicate)) if isinstance(predicate, Var) else encoder.encode(predicate)
    )
    object_id = bind.get(str(obj)) if isinstance(obj, Var) else encoder.encode(obj)

    if quoted_lookup is not None:
        matches = store.match_quoted_ids(
            quoted_lookup[0],
            quoted_lookup[1],
            quoted_lookup[2],
            predicate_id,
            object_id,
            graph=lookup_graph,
        )
    else:
        matches = store.match_ids(subject_id, predicate_id, object_id, graph=lookup_graph)

    results: List[Tuple[tuple, tuple]] = []
    for triple, triple_graph in matches:
        local: Dict[str, int] = {}
        if capture_graph:
            local[graph_var] = encoder.encode(triple_graph)
        if not (
            _match_term_id(subject, triple[0], bind, local, encoder)
            and _match_term_id(predicate, triple[1], bind, local, encoder)
            and _match_term_id(obj, triple[2], bind, local, encoder)
        ):
            continue
        updates = tuple((name, local[name]) for name in unbound_shared if name in local)
        extension = tuple(local[name] for name in new_vars)
        results.append((updates, extension))
    return results


def _resolve_quoted_ids(
    pattern: QuotedPattern, bind: Dict[str, Optional[int]], encoder: QueryEncoder
) -> Tuple[Optional[int], Optional[int], Optional[int]]:
    """Inner part ids of a quoted pattern under ``bind`` (``None`` holes)."""
    parts: List[Optional[int]] = []
    for part in (pattern.subject, pattern.predicate, pattern.object):
        if isinstance(part, Var):
            parts.append(bind.get(str(part)))
        elif isinstance(part, QuotedPattern):
            inner = _resolve_quoted_ids(part, bind, encoder)
            parts.append(encoder.quoted_id(inner) if None not in inner else None)  # type: ignore[arg-type]
        else:
            parts.append(encoder.encode(part))
    return (parts[0], parts[1], parts[2])


def _match_term_id(
    term: Any,
    term_id: int,
    bind: Dict[str, Optional[int]],
    local: Dict[str, int],
    encoder: QueryEncoder,
) -> bool:
    """Match one pattern term against a matched id, extending ``local``."""
    if isinstance(term, Var):
        name = str(term)
        value = local.get(name)
        if value is None:
            value = bind.get(name)
        if value is None:
            local[name] = term_id
            return True
        return value == term_id
    if isinstance(term, QuotedPattern):
        parts = encoder.quoted_parts(term_id)
        if parts is None:
            return False
        return (
            _match_term_id(term.subject, parts[0], bind, local, encoder)
            and _match_term_id(term.predicate, parts[1], bind, local, encoder)
            and _match_term_id(term.object, parts[2], bind, local, encoder)
        )
    return encoder.encode(term) == term_id
