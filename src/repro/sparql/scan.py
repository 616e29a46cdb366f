"""Index access for one triple pattern: scan tables, id-array feeds, probes.

The two strategies a compiled :class:`~repro.sparql.plan.JoinPlan` can run
with: :func:`scan_join_table` (one constant-only index pass hashed by the
join key) and :func:`compile_probe` (one index lookup per distinct key).
Both drop the candidates that fail the plan's equality checks.  Everything
stays in id space.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sparql.columnar import QueryContext
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


Matches = Iterator[Tuple[tuple, Optional[tuple]]]


def compile_check(checks: List[Tuple[Pick, Pick]]) -> Callable[[Matches, tuple], Matches]:
    """``(matches, tail) -> matches`` without the candidates that fail a check.

    A check pairs a repeated variable's first pick with a later one; both
    read ``triple + tail``, as the plan's picks do.  Without checks the
    matches pass through untouched.
    """
    if not checks:
        return lambda matches, tail: matches
    left = compile_picker([first for first, _ in checks])
    right = compile_picker([later for _, later in checks])
    return lambda matches, tail: (
        (triple, parts)
        for triple, parts in matches
        if left(triple + tail, parts) == right(triple + tail, parts)
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
    check = compile_check(plan.checks)
    table: JoinTable = {}
    for index, tail in zip(plan.indexes, plan.tails):
        for triple, parts in check(
            _matches(index, subject_id, predicate_id, object_id, inner, quoted_parts), tail
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

    keep = None
    if plan.checks:  # candidates whose repeated variable reads one id
        keep = np.logical_and.reduce(
            [column(first) == column(later) for first, later in plan.checks]
        )

    def values(pick: Pick) -> list:
        # One C-level ``tolist`` per column, so the per-candidate work is
        # just the hash-table insert.
        picked = column(pick)
        return (picked if keep is None else picked[keep]).tolist()

    key_lists = [values(pick) for pick in plan.key_picks]
    keys = key_lists[0] if len(key_lists) == 1 else zip(*key_lists)
    extensions = zip(*(values(pick) for pick in plan.picks)) if plan.picks else repeat(())
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

    The key carries no :data:`~repro.sparql.columnar.UNBOUND` cells: the
    join compiles a plan without the unbound names in the key for those
    rows.  A key variable repeated in the pattern reads the key at every
    position, so only the checks of new variables run here.
    """
    (s_mode, s_value), (p_mode, p_value), (o_mode, o_value) = plan.sources
    quoted_sources = plan.quoted_sources
    scope = list(zip(plan.indexes, plan.tails))
    graph_key = plan.graph_key
    if graph_key is not None:
        # ``?g`` arrives bound in the key: each probe reads one graph.
        scope_of = {tail[0]: [(index, ())] for index, tail in scope}
    ext_picker = compile_picker(plan.picks)
    check = compile_check([pair for pair in plan.checks if pair[0] not in plan.key_picks])
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
            for triple, parts in check(
                _matches(index, subject_id, predicate_id, object_id, inner, quoted_parts), tail
            ):
                append(ext_picker(triple + tail, parts))
        return results

    return probe
