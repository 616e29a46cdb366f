"""Evaluation of parsed SPARQL queries over a :class:`~repro.rdf.QuadStore`.

There is one executor.  Solutions live in a columnar
:class:`~repro.sparql.columnar.Relation` (tuples of integer term ids over a
fixed variable-slot layout); each triple pattern is hash-joined into the
accumulated relation on the shared variables, single-variable FILTERs are
pushed below the joins through memoized per-id verdict tables, and GROUP BY
/ ORDER BY / DISTINCT / SELECT ``*`` run on numpy id columns, decoding only
the distinct ids a query actually reads.

Module map (plain functions, one per-evaluation
:class:`~repro.sparql.columnar.QueryContext` passed through them):

* :mod:`~repro.sparql.plan` — pattern reordering by live cardinality
  statistics, cost estimates, the compiled join plan every pattern joins
  through, ``explain`` lines;
* :mod:`~repro.sparql.scan` — index access for one pattern: scan-mode hash
  tables, id-array feeds, per-key probes;
* :mod:`~repro.sparql.join` — group evaluation: joins, OPTIONAL, UNION,
  GRAPH, BIND, FILTER pushdown;
* :mod:`~repro.sparql.collate` — GROUP BY / ORDER BY / DISTINCT /
  projection in id space;
* :mod:`~repro.sparql.expression` — FILTER / BIND expression evaluation;
* this module — :class:`SPARQLEngine` (and its answer memo) and
  :class:`SelectResult`.

``tests/sparql_oracle.py`` holds a deliberately naive reference evaluator
(written pattern order, one store lookup per binding) that the parity tests
compare this executor against.
"""

from __future__ import annotations

import gc
import threading
from typing import Any, Dict, List, Union

from repro.rdf.namespace import DEFAULT_PREFIXES
from repro.rdf.store import QuadStore
from repro.sparql.algebra import SelectQuery
from repro.sparql.collate import collate
from repro.sparql.columnar import QueryContext, Relation
from repro.sparql.join import evaluate_group
from repro.sparql.parser import parse_query
from repro.sparql.plan import describe_element, reorder_elements

#: The most answer rows one engine's memo holds; an answer that would
#: overfill it empties the memo first, and a larger answer is not kept.
ANSWER_MEMO_ROWS = 20_000


class SelectResult:
    """The result of a SELECT query: variable names plus rows of bindings."""

    def __init__(self, variables: List[str], rows: List[Dict[str, Any]]):
        self.variables = variables
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, variable: str) -> List[Any]:
        """All values bound to ``variable`` across rows (``None`` when unbound)."""
        return [row.get(variable) for row in self.rows]

    def to_table(self, name: str = "query_result"):
        """Convert to a :class:`repro.tabular.Table` (the paper returns DataFrames)."""
        from repro.tabular import Column, Table

        table = Table(name)
        for variable in self.variables:
            table.add_column(Column(variable, [row.get(variable) for row in self.rows]))
        return table

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"SelectResult(variables={self.variables}, rows={len(self.rows)})"


class SPARQLEngine:
    """Evaluates SELECT queries against a quad store.

    Evaluation is index-aware: inside each group pattern, triple patterns are
    greedily reordered by estimated selectivity (cheapest first, given the
    variables bound so far) before being joined, every bound term — including
    fully-resolved RDF-star quoted triples — is pushed down into the store's
    hash-index lookups, and identical lookups across solutions are answered
    from a per-pattern memo instead of re-scanning.

    It also answers a repeated query text from the answers it keeps for the
    current :attr:`QuadStore.version` (see :meth:`evaluate`).

    One engine may serve concurrent readers: an evaluation keeps all its
    mutable state in its own :class:`~repro.sparql.columnar.QueryContext`;
    only the :meth:`stats` counters and the answer memo are shared (under a
    lock).
    """

    def __init__(self, store: QuadStore, prefixes=None):
        self.store = store
        self.prefixes = prefixes or DEFAULT_PREFIXES
        self._stats_lock = threading.Lock()
        self._stats = {
            kind: {"hits": 0, "misses": 0} for kind in ("pattern_memo", "filter_memo", "answers")
        }
        self._answers: Dict[str, SelectResult] = {}
        self._answers_version = -1
        self._answer_rows = 0

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Snapshot of the engine's cumulative cache counters.

        ``pattern_memo`` counts the per-join lookup memos (one probe per
        distinct join key); ``filter_memo`` counts the per-filter verdict
        tables of FILTER pushdown (one predicate evaluation per distinct id);
        ``answers`` counts evaluations answered from the answer memo (hits)
        and evaluations that planned and joined (misses).  Each holds
        ``hits`` / ``misses`` summed over finished queries.
        """
        with self._stats_lock:
            return {kind: dict(counters) for kind, counters in self._stats.items()}

    def select(self, query: str) -> SelectResult:
        """Evaluate a SELECT query text; it is parsed only on a memo miss."""
        return self.evaluate(query)

    def explain(self, query) -> List[str]:
        """The planned evaluation order of the query's top-level group.

        Accepts a query string or a parsed :class:`SelectQuery` and returns
        one human-readable line per group element, in the order the planner
        would evaluate them (single-variable FILTERs are marked as pushed
        down).  Exposes the effect of the cardinality statistics on join
        ordering for tests and benchmarks.
        """
        parsed = parse_query(query, self.prefixes) if isinstance(query, str) else query
        elements = reorder_elements(self.store, parsed.where.elements, {}, None)
        return [describe_element(element) for element in elements]

    def evaluate(self, query: Union[str, SelectQuery]) -> SelectResult:
        """Evaluate a query text (read under this engine's prefixes) or a parsed query.

        Evaluation runs inside one store read view, so the result reflects a
        single committed state even while a governor service is applying
        write batches on another thread — a query never observes a
        half-applied ingestion batch.  A shard the query touches loads once
        and stays resident.

        The answer memo: a text is answered from it when it was answered at
        the current :attr:`QuadStore.version`, read in the view, and is
        parsed only on a miss; a parsed :class:`SelectQuery` always
        evaluates.  Every commit, replica apply and ``reopen`` moves the
        version and empties the memo.  Nothing is kept or served inside an
        open write batch (a rollback winds the version back) or kept from a
        query that raised; a text that fails to parse raises on every call
        and counts as neither hit nor miss.  At most
        :data:`ANSWER_MEMO_ROWS` rows are kept, and a result shares no row
        or list with the memo.
        """
        store = self.store
        with store.read_view():
            key = query if isinstance(query, str) and not store.in_write_batch else None
            with self._stats_lock:
                if self._answers_version != store.version:
                    self._answers, self._answers_version, self._answer_rows = {}, store.version, 0
                kept = self._answers.get(key)
                if kept is not None:
                    self._stats["answers"]["hits"] += 1
            if kept is None:
                parsed = parse_query(query, self.prefixes) if isinstance(query, str) else query
                with self._stats_lock:
                    self._stats["answers"]["misses"] += 1
                kept = self._evaluate(parsed)
                if key is None or not self._keep(key, kept):
                    return kept
        return SelectResult(list(kept.variables), [dict(row) for row in kept.rows])

    def _keep(self, key: str, answer: SelectResult) -> bool:
        """Memoize ``answer`` (caller holds the read view); ``False`` if too large."""
        rows = len(answer.rows)
        if rows > ANSWER_MEMO_ROWS:
            return False
        with self._stats_lock:
            if self._answer_rows + rows > ANSWER_MEMO_ROWS:
                self._answers, self._answer_rows = {}, 0
            if self._answers.setdefault(key, answer) is answer:
                self._answer_rows += rows
        return True

    def _evaluate(self, query: SelectQuery) -> SelectResult:
        ctx = QueryContext(self.store)
        # The executor's intermediates are acyclic (tuples of ints inside
        # plain lists), so reference counting reclaims them fully; pausing
        # the cyclic collector stops it re-scanning the growing row lists on
        # every allocation spike — a large, pure win on 100k-row
        # materializations.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            relation = evaluate_group(ctx, query.where, Relation.unit(), None)
            return SelectResult(*collate(query, relation, ctx.encoder))
        finally:
            if gc_was_enabled:
                gc.enable()
            self._absorb(ctx)

    def _absorb(self, ctx: QueryContext) -> None:
        """Add one finished evaluation's memo counters to the totals."""
        finished = ctx.counters
        with self._stats_lock:
            for kind, counters in finished.items():
                totals = self._stats[kind]
                for name, value in counters.items():
                    totals[name] += value
