"""Fault injection for the storage layer: prove rollback, not just hope.

:class:`FaultInjectingBackend` wraps any :class:`QuadStoreBackend` and
counts *fault points* — row inserts and deletes (every delete is a row
delete), graph drops, flushes, batch commits.  A
:class:`FaultPlan` arms one point: when the counter reaches it, the wrapper
either raises (:class:`InjectedFault` — an "application" failure the undo
log must roll back) or severs the inner backend mid-write
(:class:`InjectedCrash` — buffered writes dropped, the open sqlite
transaction left uncommitted, as a ``kill -9`` would).

The wrapper is not a backend of its own: it defines only the fault points
and forwards every other attribute to the backend it wraps, so what a
wrapped store reads, replicates or reports is the inner backend's answer.

The crash-point sweep tests drive a governed ingestion once per fault
point and assert the store afterwards is byte-identical to one that never
saw the failed batch — at *every* point, which is what makes the batch
"all-or-nothing" rather than "usually fine".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.rdf.backend import QuadStoreBackend
from repro.rdf.graph_index import IdTriple
from repro.rdf.terms import URIRef


class InjectedFault(RuntimeError):
    """An injected in-process failure (the batch body observes it raising)."""


class InjectedCrash(RuntimeError):
    """An injected process death: the inner backend was severed mid-write.

    After this raises the backend is unusable; recovery is reopening the
    durable path, which rolls back to the last committed ``commit_version``
    via the sqlite journal.
    """


@dataclass
class FaultPlan:
    """Arm one fault point.

    ``at`` is the 1-based fault-point count to fire on; ``kind`` is
    ``"raise"`` (recoverable in-process error) or ``"crash"`` (sever the
    backend as a process kill would).  One-shot by default: the plan disarms
    after firing so the rolled-back batch can be retried; ``sticky`` keeps
    it armed (every retry fails at the same point — the poison-table case).
    """

    at: int
    kind: str = "raise"
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "crash"):
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if self.at < 1:
            raise ValueError("fault point counts are 1-based")


class FaultInjectingBackend:
    """A backend wrapper that fails on command (see module docstring).

    Fault points tick on every mutation hook (``quads_added`` /
    ``quads_removed``, once per row; graph drops) and durability boundary
    (``flush`` / ``commit_batch``) — *before* the inner backend sees the op, so
    a fired fault models dying during the op.  ``op_count`` keeps counting
    with no plan armed; a sweep first runs fault-free to learn how many
    points one workload has, then replays it once per point.

    Every other attribute — reads, batch begin / rollback, undo restore
    (which must never fault: a failed rollback is corruption), change
    inspection, replication primitives — is the inner backend's own,
    forwarded by :meth:`__getattr__`, so the wrapper answers exactly what the
    backend it wraps answers.
    """

    def __init__(self, inner: QuadStoreBackend, plan: Optional[FaultPlan] = None):
        self._inner = inner
        self.plan = plan
        #: Total fault points seen (keeps counting after the plan fires).
        self.op_count = 0
        #: ``(operation, count)`` of the last fired fault, if any.
        self.fired: Optional[Tuple[str, int]] = None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    # ------------------------------------------------------------ fault engine
    def _tick(self, operation: str) -> None:
        self.op_count += 1
        plan = self.plan
        if plan is None or self.op_count != plan.at:
            return
        if not plan.sticky:
            self.plan = None
        self.fired = (operation, self.op_count)
        if plan.kind == "crash":
            crash = getattr(self._inner, "crash", None)
            if crash is not None:
                crash()
            raise InjectedCrash(f"injected crash at {operation} #{self.op_count}")
        raise InjectedFault(f"injected fault at {operation} #{self.op_count}")

    def _tick_rows(self, operation: str, forward, graph: URIRef, rows: List[IdTriple]) -> None:
        """One fault point per row: a plan armed inside the batch fires
        mid-batch, after the inner backend took the rows ahead of that one."""
        plan = self.plan
        ahead = plan.at - self.op_count - 1 if plan is not None else -1
        if 0 <= ahead < len(rows):
            self.op_count += ahead
            forward(graph, rows[:ahead])
            self._tick(operation)
        self.op_count += len(rows)
        forward(graph, rows)

    # ------------------------------------------------------------ fault points
    def quads_added(self, graph: URIRef, rows: List[IdTriple]) -> None:
        self._tick_rows("quad_added", self._inner.quads_added, graph, rows)

    def quads_removed(self, graph: URIRef, rows: List[IdTriple]) -> None:
        self._tick_rows("quad_removed", self._inner.quads_removed, graph, rows)

    def drop_graph_for_undo(self, graph: URIRef) -> Optional[Any]:
        self._tick("drop_graph")
        return self._inner.drop_graph_for_undo(graph)

    def flush(self) -> None:
        self._tick("flush")
        self._inner.flush()

    def commit_batch(self, commit_version: int) -> None:
        self._tick("commit_batch")
        self._inner.commit_batch(commit_version)
