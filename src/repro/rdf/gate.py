"""Read/write gating for concurrent access to a :class:`~repro.rdf.QuadStore`.

The governor service ingests on a background scheduler thread while
discovery clients keep querying from their own threads.  Two primitives make
that safe and *consistent*:

* :class:`ReadWriteGate` — a reentrant readers-writer lock.  Any number of
  reader threads share the store; a writer holds it exclusively, so a commit
  batch (one coalesced ingestion micro-batch) becomes atomic with respect to
  readers: a query observes the graph either entirely before or entirely
  after the batch, never a half-applied table.
* :class:`ReadView` — the token handed out by ``QuadStore.read_view()``:
  it records the store's *commit version* at entry, so a reader can detect
  whether any batch committed since (``changed``) and key derived caches on
  a number that only moves on whole committed batches.

Reentrancy rules (all per-thread):

* nested read views just deepen a counter — a query helper may open a view
  while its caller already holds one;
* a thread holding the *write* side may freely open read views (the governor
  queries its own half-written batch, e.g. the linker resolving tables);
* a thread holding only a *read* view must not start a write batch — that
  is an upgrade, the classic readers-writer deadlock, and raises
  immediately instead of deadlocking (the same protection guards the
  governor's submit-and-wait shims, where the deadlock would otherwise hide
  behind the service queue).

Writers take preference: once a writer is waiting, new top-level read views
queue behind it, so a stream of readers cannot starve ingestion.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = ["ReadWriteGate", "ReadView"]


class ReadWriteGate:
    """A reentrant readers-writer lock with writer preference."""

    def __init__(self):
        lock = threading.Lock()
        #: Readers wait here until no writer is active or queued.
        self._readers_turn = threading.Condition(lock)
        #: Writers wait here until the store is idle.
        self._writers_turn = threading.Condition(lock)
        #: Number of threads currently inside a top-level read view.
        self._active_readers = 0
        #: Writers blocked in :meth:`acquire_write` (gates new readers).
        self._waiting_writers = 0
        #: Thread ident of the current writer, ``None`` when idle.
        self._writer: Optional[int] = None
        #: Reentrant depth of the writer's nested batches.
        self._writer_depth = 0
        #: Per-thread read-view depth (nested views share one slot).
        self._local = threading.local()

    # ---------------------------------------------------------------- readers
    def read_depth(self) -> int:
        """This thread's read-view nesting depth (0 = not reading)."""
        return getattr(self._local, "depth", 0)

    def acquire_read(self) -> None:
        depth = getattr(self._local, "depth", 0)
        # Nested views, and reads inside this thread's own write batch, are
        # pure counter bumps: the thread already owns sufficient access.
        # (Only this thread can have set ``_writer`` to its own ident, so the
        # unlocked comparison is race-free.)
        if depth or self._writer == threading.get_ident():
            self._local.depth = depth + 1
            return
        with self._readers_turn:
            while self._writer is not None or self._waiting_writers:
                self._readers_turn.wait()
            self._active_readers += 1
        self._local.depth = 1

    def release_read(self) -> None:
        depth = getattr(self._local, "depth", 0)
        if depth <= 0:
            raise RuntimeError("release_read() without a matching acquire_read()")
        self._local.depth = depth - 1
        if depth > 1 or self._writer == threading.get_ident():
            return
        with self._readers_turn:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._writers_turn.notify()

    # ---------------------------------------------------------------- writers
    def acquire_write(self) -> int:
        """Take (or deepen) the write side; returns the new nesting depth."""
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            return self._writer_depth
        if getattr(self._local, "depth", 0):
            raise RuntimeError(
                "cannot start a write batch inside a read view: release the "
                "view first (a read-to-write upgrade would deadlock)"
            )
        with self._writers_turn:
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._active_readers:
                    self._writers_turn.wait()
                self._writer = me
                self._writer_depth = 1
            finally:
                self._waiting_writers -= 1
        return 1

    def release_write(self) -> int:
        """Release one write level; returns the remaining depth."""
        if self._writer != threading.get_ident():
            raise RuntimeError("release_write() by a thread that does not hold the gate")
        self._writer_depth -= 1
        remaining = self._writer_depth
        if remaining == 0:
            with self._writers_turn:
                self._writer = None
                if self._waiting_writers:
                    self._writers_turn.notify()
                else:
                    self._readers_turn.notify_all()
        return remaining


class ReadView:
    """A consistent read scope over a store, pinned to a commit version.

    Produced by ``QuadStore.read_view()``; while the view is open no write
    batch can commit, so everything read through it belongs to one store
    state.  ``version`` is the store's commit version at entry — it only
    advances on whole committed batches, making it the right cache key for
    snapshot-derived state.
    """

    __slots__ = ("store", "version")

    def __init__(self, store, version: int):
        self.store = store
        self.version = version

    @property
    def changed(self) -> bool:
        """Whether any batch committed since this view was opened.

        Only meaningful after the view closes (while it is open, writers are
        excluded by construction).
        """
        return self.store.commit_version != self.version

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"ReadView(version={self.version})"
