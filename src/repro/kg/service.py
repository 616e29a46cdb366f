"""GovernorService: queued, non-blocking ingestion over a :class:`KGGovernor`.

The paper's governor "creates, maintains and synchronizes" the LiDS graph as
a continuously running service.  This module is that service: instead of
blocking each caller for the full profile + similarity + construction cost,
``submit_*`` methods enqueue work onto a bounded queue and return an
:class:`IngestTicket` immediately; a single background scheduler thread
drains the queue, **coalesces** adjacent table submissions into similarity
micro-batches (one profiling fan-out through the governor's
:class:`~repro.parallel.JobExecutor` instead of N tiny ones) and applies
each micro-batch's graph writes as one atomic commit batch
(``QuadStore.write_batch``) — so discovery reads running on other threads
(``KGLiDS`` / ``LiDSClient``) stay answerable throughout and always observe
whole committed batches.

Back-pressure is the queue bound: when producers outrun the scheduler,
``submit_*`` blocks (or raises ``queue.Full`` under a caller-supplied
timeout) instead of growing memory without limit.

While a service fronts a governor, the governor's own sync mutators
(``add_data_lake`` etc.) become thin submit-and-wait shims through the same
queue, so direct calls and queued tickets serialize on one scheduler and the
resulting graph is byte-identical to synchronous governing.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.kg.errors import GovernanceError, PoisonTableError, TransientError
from repro.kg.governor import GovernorReport, KGGovernor
from repro.pipelines.abstraction import PipelineScript
from repro.tabular import DataLake, Table

__all__ = ["GovernorService", "IngestTicket"]

#: Queue sentinel shutting the scheduler down after all prior work drains.
_SHUTDOWN = object()


class IngestTicket:
    """Handle of one queued ingestion submission.

    Tickets resolve with a *merged* :class:`GovernorReport`: when the
    scheduler coalesces several submissions into one micro-batch, every
    ticket of the batch resolves with the same batch report (the composition
    is associative — ``GovernorReport.merge`` — so totals are independent of
    how the scheduler happened to cut the batches).
    """

    __slots__ = ("kind", "_done", "_running", "_report", "_error", "_wait_guard")

    def __init__(self, kind: str, wait_guard=None):
        #: What was submitted: ``tables`` / ``pipelines`` / ``refresh`` /
        #: ``retract``.
        self.kind = kind
        self._done = threading.Event()
        self._running = False
        self._report: Optional[GovernorReport] = None
        self._error: Optional[BaseException] = None
        #: Called before any blocking wait; the owning service uses it to
        #: reject waits that would deadlock (awaiting under a read view).
        self._wait_guard = wait_guard

    # ---------------------------------------------------------------- queries
    @property
    def status(self) -> str:
        """``"queued"``, ``"running"``, ``"done"`` or ``"failed"``."""
        if self._done.is_set():
            return "failed" if self._error is not None else "done"
        return "running" if self._running else "queued"

    def done(self) -> bool:
        """Whether the submission finished (successfully or not)."""
        return self._done.is_set()

    def _check_wait_safe(self) -> None:
        if not self._done.is_set() and self._wait_guard is not None:
            self._wait_guard(self.kind)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the submission finishes; ``False`` on timeout."""
        self._check_wait_safe()
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> GovernorReport:
        """The merged report of the batch this submission landed in.

        Blocks until done; raises :class:`TimeoutError` when ``timeout``
        expires first, and re-raises the scheduler-side exception when the
        batch failed.
        """
        self._check_wait_safe()
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"ingestion ticket ({self.kind}) not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The failure, if any (blocks like :meth:`result`)."""
        self._check_wait_safe()
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"ingestion ticket ({self.kind}) not done within {timeout}s"
            )
        return self._error

    # -------------------------------------------------------- scheduler hooks
    def _mark_running(self) -> None:
        self._running = True

    def _resolve(self, report: GovernorReport) -> None:
        self._report = report
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"IngestTicket(kind={self.kind!r}, status={self.status!r})"


@dataclass
class _Submission:
    kind: str
    payload: Any
    ticket: IngestTicket


class GovernorService:
    """A queued ingestion front-end around one :class:`KGGovernor`.

    ``GovernorService()`` builds its own governor (keyword arguments pass
    through to :class:`KGGovernor`); ``GovernorService(governor)`` adopts an
    existing one.  Either way the governor's sync mutators route through
    this service's queue until :meth:`close`.

    * ``maxsize`` bounds the submission queue (back-pressure: full queue
      blocks producers).
    * ``max_batch_tables`` caps how many tables one coalesced micro-batch
      may hold — smaller batches commit more often, which shortens the
      exclusive write window concurrent readers may wait on; larger batches
      amortize profiling fan-out better.

    The scheduler thread is a daemon: an abandoned service cannot keep the
    interpreter alive, but orderly shutdown should still go through
    :meth:`close` (or the context-manager form), which drains the queue
    first so every ticket resolves.
    """

    def __init__(
        self,
        governor: Optional[KGGovernor] = None,
        *,
        maxsize: int = 128,
        max_batch_tables: int = 16,
        **governor_kwargs,
    ):
        if governor is None:
            governor = KGGovernor(**governor_kwargs)
        elif governor_kwargs:
            raise ValueError("pass governor kwargs only when the service builds the governor")
        if governor.read_only:
            raise PermissionError("cannot serve ingestion over a read-only governor")
        if governor._service is not None:
            raise ValueError("governor is already fronted by another GovernorService")
        self.governor = governor
        self.max_batch_tables = max(1, int(max_batch_tables))
        self._queue: "queue.Queue" = queue.Queue(maxsize)
        #: A drained-but-unprocessed submission that ended coalescing (kind
        #: switch or shutdown); scheduler-thread state only.
        self._carry: Optional[Any] = None
        self._closed = False
        #: Makes [check closed -> enqueue] atomic against close(): without
        #: it a racing submission could land *behind* the shutdown sentinel
        #: and its ticket would never resolve.  Holding the lock across a
        #: back-pressure block is safe: the scheduler (which never takes
        #: this lock) keeps draining the queue, so the put always completes.
        self._submit_lock = threading.Lock()
        #: Scheduler pause switch (set = running).  :meth:`pause` lets
        #: operators quiesce ingestion — and tests pile up submissions to
        #: observe coalescing deterministically.
        self._resume = threading.Event()
        self._resume.set()
        self._stats_lock = threading.Lock()
        #: Telemetry: submissions accepted / resolved / failed, scheduler
        #: batches executed, submissions that rode along in a batch beyond
        #: the first (``coalesced``), transient ``retries``, and submissions
        #: refused because their key is ``quarantined``.
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "batches": 0,
            "coalesced": 0,
            "retries": 0,
            "quarantined": 0,
        }
        #: How many times a :class:`TransientError` is retried (with capped
        #: exponential backoff) before the ticket fails.
        self.max_transient_retries = 3
        #: Base / cap of the retry backoff, in seconds.
        self.retry_backoff = 0.05
        self.retry_backoff_cap = 1.0
        #: Consecutive failures of one submission key before it is
        #: quarantined (further submissions fail fast with
        #: :class:`PoisonTableError` instead of wedging the queue).
        self.quarantine_after = 3
        #: key -> consecutive failure count (reset on success).
        self._failure_counts: Dict[Any, int] = {}
        #: key -> last error that tipped it into quarantine.
        self._quarantined_keys: Dict[Any, BaseException] = {}
        #: Set when the scheduler thread dies unexpectedly: submissions are
        #: refused (their tickets could never resolve).
        self._scheduler_dead = False
        #: The batch currently executing on the scheduler thread.  Tracked so
        #: the death safety net can fail *in-flight* tickets too — without it
        #: a scheduler bug would leave the batch it was executing (and any
        #: carried coalescing stopper) waiting forever.
        self._inflight: List["_Submission"] = []
        governor._service = self
        self._thread = threading.Thread(
            target=self._run, name="governor-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- submission
    def submit_table(
        self,
        table: Table,
        dataset_name: str = "default",
        *,
        timeout: Optional[float] = None,
    ) -> IngestTicket:
        """Queue one table for ingestion."""
        return self._submit("tables", [(dataset_name, table)], timeout)

    def submit_lake(
        self, lake: DataLake, *, timeout: Optional[float] = None
    ) -> IngestTicket:
        """Queue a whole data lake for ingestion."""
        payload = [(table.dataset or "default", table) for table in lake.tables()]
        return self._submit("tables", payload, timeout)

    def submit_pipelines(
        self, scripts: Sequence[PipelineScript], *, timeout: Optional[float] = None
    ) -> IngestTicket:
        """Queue pipeline scripts for abstraction + linking."""
        return self._submit("pipelines", list(scripts), timeout)

    def submit_refresh(
        self,
        table: Table,
        dataset_name: Optional[str] = None,
        *,
        timeout: Optional[float] = None,
    ) -> IngestTicket:
        """Queue a table refresh (retract stale footprint, re-govern)."""
        return self._submit("refresh", (dataset_name, table), timeout)

    def submit_retract(
        self,
        dataset_name: str,
        table_name: str,
        *,
        timeout: Optional[float] = None,
    ) -> IngestTicket:
        """Queue a table retraction; the report lists ``retracted_tables``."""
        return self._submit("retract", (dataset_name, table_name), timeout)

    def _submit(self, kind: str, payload: Any, timeout: Optional[float]) -> IngestTicket:
        if self.governor.storage.graph.in_read_view():
            # A producer blocked on a full queue (or later on the ticket)
            # while holding a read view would deadlock the scheduler's next
            # write batch against its own view.
            raise RuntimeError(
                "cannot submit ingestion work while holding a read view on "
                "the LiDS graph"
            )
        ticket = IngestTicket(kind, wait_guard=self._wait_guard)
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("GovernorService is closed")
            if self._scheduler_dead:
                raise GovernanceError(
                    "GovernorService scheduler thread has died; the service "
                    "must be closed and rebuilt"
                )
            self._queue.put(_Submission(kind, payload, ticket), timeout=timeout)
        with self._stats_lock:
            self._counters["submitted"] += 1
        return ticket

    def _wait_guard(self, kind: str) -> None:
        """Reject blocking waits that would deadlock the scheduler.

        A thread awaiting a ticket (or :meth:`drain`) while holding a read
        view blocks the scheduler's next write batch on its own view while
        it blocks on the scheduler — mutual, permanent.  Raise instead.
        """
        if self.governor.storage.graph.in_read_view():
            raise RuntimeError(
                f"cannot await a {kind!r} ingestion ticket while holding a "
                "read view on the LiDS graph (the scheduler's write batch "
                "would deadlock against this thread's view)"
            )

    # ------------------------------------------------------------- life cycle
    def is_scheduler_thread(self) -> bool:
        """Whether the calling thread is this service's scheduler thread."""
        return threading.current_thread() is self._thread

    def pause(self) -> None:
        """Stop executing queued work (submissions still enqueue)."""
        self._resume.clear()

    def resume(self) -> None:
        """Resume executing queued work."""
        self._resume.set()

    def drain(self) -> None:
        """Block until every submission accepted so far has resolved."""
        self._wait_guard("drain")
        self._queue.join()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stats(self) -> Dict[str, int]:
        """Snapshot of the service counters plus the graph's commit version.

        Returned as a copy taken under the stats lock, so callers (and the
        serving tier's ``stats`` RPC) read one consistent counter set.  The
        ``commit_version`` key is what replicas compare their pinned version
        against to report replication lag in *versions*, not wall-clock
        guesses.
        """
        with self._stats_lock:
            snapshot = dict(self._counters)
        snapshot["commit_version"] = self.commit_version
        return snapshot

    @property
    def commit_version(self) -> int:
        """The governed graph's committed write-batch counter."""
        return self.governor.storage.graph.commit_version

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting work, drain the queue, and stop the scheduler.

        Every ticket already accepted resolves before the scheduler exits
        (the shutdown sentinel queues FIFO behind them).  Tickets queued
        behind a poisoned batch *fail* rather than hang: batch execution is
        always finite (transient retries are bounded, quarantined keys fail
        fast), and if the scheduler thread ever dies, the remaining queue is
        drained with every ticket failed.  The underlying
        governor is *not* closed — it simply returns to direct synchronous
        operation.  When ``timeout`` expires before the scheduler drains,
        :class:`TimeoutError` is raised and the governor stays attached to
        the (still draining) service — detaching it early would let direct
        sync mutations race the in-flight batch on the governor's unlocked
        Python state; call :meth:`close` again to finish the hand-back.
        """
        # Un-pause first: a paused scheduler would never drain a full queue,
        # and the sentinel put below must always complete.
        self._resume.set()
        with self._submit_lock:
            if not self._closed:
                self._closed = True
                # Under the submit lock no new submission can slip in behind
                # the sentinel, so every accepted ticket resolves before the
                # scheduler exits.
                self._queue.put(_SHUTDOWN)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"scheduler still draining after {timeout}s; call close() "
                "again to finish shutdown"
            )
        self.governor._service = None

    def __enter__(self) -> "GovernorService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- quarantine
    @property
    def quarantined(self) -> List[Any]:
        """Keys currently refused fast (see :class:`PoisonTableError`)."""
        return list(self._quarantined_keys)

    @property
    def quarantine_reasons(self) -> Dict[Any, BaseException]:
        """``key -> last error`` for every quarantined key.

        The *reason* a table is refused matters operationally: "permission
        denied" and "profiler crashed" call for different fixes.  The
        returned dict is a snapshot — mutating it does not lift anything;
        use :meth:`clear_quarantine` for that.
        """
        return dict(self._quarantined_keys)

    def quarantine(self, key: Any, error: BaseException) -> None:
        """Quarantine ``key`` directly (external failure evidence).

        The scheduler quarantines keys after repeated *ingestion* failures;
        upstream components observing failures of their own — the lake
        crawler's repeatedly-unreadable files — register them here so one
        ledger answers "what is being refused and why" for the whole
        pipeline.  Lifted like any other entry via :meth:`clear_quarantine`.
        """
        self._failure_counts[key] = max(
            self._failure_counts.get(key, 0), self.quarantine_after
        )
        self._quarantined_keys[key] = error

    def clear_quarantine(self, key: Optional[Any] = None) -> None:
        """Lift the quarantine of one key (or all keys) and reset its count."""
        if key is None:
            self._quarantined_keys.clear()
            self._failure_counts.clear()
            return
        self._quarantined_keys.pop(key, None)
        self._failure_counts.pop(key, None)

    @staticmethod
    def _submission_keys(submission: _Submission) -> FrozenSet[Any]:
        """Stable identities of what a submission touches (quarantine keys)."""
        if submission.kind == "tables":
            return frozenset(
                ("table", dataset_name, table.name)
                for dataset_name, table in submission.payload
            )
        if submission.kind == "refresh":
            dataset_name, table = submission.payload
            dataset_name = dataset_name or table.dataset or "default"
            return frozenset([("table", dataset_name, table.name)])
        if submission.kind == "retract":
            dataset_name, table_name = submission.payload
            return frozenset([("table", dataset_name, table_name)])
        return frozenset(
            ("pipeline", script.pipeline_id) for script in submission.payload
        )

    def _quarantine_error(self, submission: _Submission) -> Optional[PoisonTableError]:
        for key in self._submission_keys(submission):
            error = self._quarantined_keys.get(key)
            if error is not None:
                return PoisonTableError(
                    key, self._failure_counts.get(key, self.quarantine_after), error
                )
        return None

    def _record_failure(self, submission: _Submission, error: BaseException) -> None:
        for key in self._submission_keys(submission):
            count = self._failure_counts.get(key, 0) + 1
            self._failure_counts[key] = count
            if count >= self.quarantine_after:
                self._quarantined_keys[key] = error

    def _record_success(self, submission: _Submission) -> None:
        # A success clears the slate: only *consecutive* failures quarantine.
        for key in self._submission_keys(submission):
            self._failure_counts.pop(key, None)

    def _run_with_retry(self, work):
        """Run ``work``, retrying :class:`TransientError` with capped backoff."""
        delay = self.retry_backoff
        attempt = 0
        while True:
            try:
                return work()
            except TransientError:
                attempt += 1
                if attempt > self.max_transient_retries:
                    raise
                with self._stats_lock:
                    self._counters["retries"] += 1
                time.sleep(min(delay, self.retry_backoff_cap))
                delay *= 2

    # -------------------------------------------------------------- scheduler
    def _run(self) -> None:
        try:
            while True:
                item = self._carry if self._carry is not None else self._queue.get()
                self._carry = None
                if item is _SHUTDOWN:
                    self._queue.task_done()
                    return
                self._resume.wait()
                batch = self._coalesce(item)
                self._inflight = batch
                self._execute(item.kind, batch)
                self._inflight = []
                for _ in batch:
                    self._queue.task_done()
        finally:
            # Safety net: if the loop exits for *any* reason (orderly
            # shutdown leaves the queue empty and nothing in flight, so this
            # is a no-op then), every unresolved ticket — in the batch being
            # executed, carried out of coalescing, or still queued — fails
            # instead of hanging forever behind a dead scheduler.
            self._scheduler_dead = True
            error = GovernanceError(
                "GovernorService scheduler stopped before this ticket ran"
            )
            for submission in self._inflight:
                if not submission.ticket.done():
                    submission.ticket._fail(error)
                    with self._stats_lock:
                        self._counters["failed"] += 1
            self._inflight = []
            carry, self._carry = self._carry, None
            if carry is not None and carry is not _SHUTDOWN:
                carry.ticket._fail(error)
                with self._stats_lock:
                    self._counters["failed"] += 1
            self._fail_pending(error)

    def _fail_pending(self, error: BaseException) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SHUTDOWN:
                item.ticket._fail(error)
                with self._stats_lock:
                    self._counters["failed"] += 1
            self._queue.task_done()

    def _coalesce(self, first: _Submission) -> List[_Submission]:
        """Drain immediately-available same-kind submissions behind ``first``.

        Coalescing stops at ``max_batch_tables`` total tables (for table
        submissions), at a kind switch, or at the shutdown sentinel; the
        stopping item is carried into the next scheduler turn so FIFO order
        across kinds is preserved.
        """
        batch = [first]
        size = self._batch_size(first)
        while size < self.max_batch_tables:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if nxt is _SHUTDOWN or nxt.kind != first.kind:
                self._carry = nxt
                break
            batch.append(nxt)
            size += self._batch_size(nxt)
        return batch

    @staticmethod
    def _batch_size(submission: _Submission) -> int:
        if submission.kind == "tables":
            return len(submission.payload)
        return 1

    def _execute(self, kind: str, batch: List[_Submission]) -> None:
        with self._stats_lock:
            self._counters["batches"] += 1
            self._counters["coalesced"] += len(batch) - 1
        if kind in ("refresh", "retract"):
            # Per-submission execution: each ticket gets its own report and
            # its own failure, so one broken refresh cannot poison the rest.
            for submission in batch:
                self._execute_guarded(submission, lambda s=submission: self._execute_one(s))
            return
        # Quarantined submissions fail fast up front; the rest run as one
        # coalesced batch.
        live: List[_Submission] = []
        for submission in batch:
            poison = self._quarantine_error(submission)
            if poison is not None:
                submission.ticket._mark_running()
                submission.ticket._fail(poison)
                with self._stats_lock:
                    self._counters["failed"] += 1
                    self._counters["quarantined"] += 1
            else:
                live.append(submission)
        if not live:
            return
        for submission in live:
            submission.ticket._mark_running()
        try:
            report = self._run_with_retry(lambda: self._execute_batch(kind, live))
        except BaseException as error:
            if len(live) > 1:
                # The merged batch failed (and rolled back).  Split it and
                # run each submission alone: one poison table then fails
                # only its own ticket instead of the whole batch, and the
                # healthy submissions still land.
                for submission in live:
                    self._execute_guarded(
                        submission,
                        lambda s=submission: self._execute_batch(kind, [s]),
                        mark_running=False,
                    )
            else:
                self._record_failure(live[0], error)
                live[0].ticket._fail(error)
                with self._stats_lock:
                    self._counters["failed"] += 1
        else:
            for submission in live:
                self._record_success(submission)
                submission.ticket._resolve(report)
            with self._stats_lock:
                self._counters["completed"] += len(live)

    def _execute_guarded(
        self, submission: _Submission, work, mark_running: bool = True
    ) -> None:
        """Run one submission's work with quarantine + retry + bookkeeping."""
        if mark_running:
            submission.ticket._mark_running()
        poison = self._quarantine_error(submission)
        if poison is not None:
            submission.ticket._fail(poison)
            with self._stats_lock:
                self._counters["failed"] += 1
                self._counters["quarantined"] += 1
            return
        try:
            report = self._run_with_retry(work)
        except BaseException as error:
            self._record_failure(submission, error)
            submission.ticket._fail(error)
            with self._stats_lock:
                self._counters["failed"] += 1
        else:
            self._record_success(submission)
            submission.ticket._resolve(report)
            with self._stats_lock:
                self._counters["completed"] += 1

    def _execute_batch(self, kind: str, batch: List[_Submission]) -> GovernorReport:
        if kind == "tables":
            return self.governor.add_data_lake(self._merge_lake(batch))
        scripts = [script for s in batch for script in s.payload]
        return self.governor.add_pipelines(scripts)

    def _execute_one(self, submission: _Submission) -> GovernorReport:
        if submission.kind == "refresh":
            dataset_name, table = submission.payload
            return self.governor.refresh_table(table, dataset_name=dataset_name)
        dataset_name, table_name = submission.payload
        report = GovernorReport()
        if self.governor.retract_table(dataset_name, table_name):
            report.retracted_tables.append(f"{dataset_name}/{table_name}")
        return report

    @staticmethod
    def _merge_lake(batch: List[_Submission]) -> DataLake:
        """One lake holding every table of a coalesced batch.

        A ``(dataset, table)`` key submitted twice within one batch keeps the
        *last* submission — equivalent to applying the submissions in order,
        since the governor's refresh path makes a changed re-add
        byte-identical to governing the final contents directly.
        """
        merged: Dict[Tuple[str, str], Tuple[str, Table]] = {}
        for submission in batch:
            for dataset_name, table in submission.payload:
                merged[(dataset_name, table.name)] = (dataset_name, table)
        lake = DataLake("governor-service-batch")
        for dataset_name, table in merged.values():
            lake.add_table(dataset_name, table)
        return lake
