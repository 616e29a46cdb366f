"""Timing wrappers at the layer boundaries, and the arithmetic over spans.

The program under ``src/`` carries no instrumentation, so the traced run
records spans *from here*: :func:`install` replaces the public functions at
each layer boundary (listed in :data:`BOUNDARIES`) with timing wrappers, in
whichever process calls it — the driver, the writer child, the replica
child.  A span is ``(process, thread, id, parent, name, start, end,
request)``; spans stay in memory and :meth:`Tracer.dump` writes them out
when the process ends.  ``start``/``end`` are ``time.perf_counter()``
readings — CLOCK_MONOTONIC on Linux, one clock for every process of a run,
so spans of different processes compare directly.

Three pieces of arithmetic live here too, because the unit tests pin them:

* :func:`thread_segments` — a span's self time is its duration minus the
  part its child spans cover, kept as intervals per thread;
* :func:`exclusive_times` — the cross-thread extension: while a caller
  thread (or process) *waits* on work that is itself traced elsewhere, the
  time belongs to the callee, so each instant of the window is attributed
  to exactly one span and per-layer times add up to at most the window;
* :func:`counter_delta` — counters the program already exposes are
  sampled at request and window boundaries and differenced over the window.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (process, thread, id, parent, name, start, end, request)
Span = Tuple[str, str, int, int, str, float, float, Optional[int]]


class _ThreadState:
    __slots__ = ("thread", "stack", "active", "request")

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        self.stack: List[int] = []
        self.active: set = set()
        self.request: Optional[int] = None


class Tracer:
    """Holds one process's spans, counter samples and gate-hold intervals."""

    def __init__(self, process: str):
        self.process = process
        self.spans: List[Span] = []
        #: ``(name, start, end)`` intervals a store gate was held (entered ->
        #: released); kept out of the span tree because the body of a
        #: ``with store.write_batch():`` belongs to whoever runs in it.
        self.holds: List[Tuple[str, float, float]] = []
        #: ``(time, key, value)`` readings of the cumulative counters the
        #: program exposes, taken at request and window boundaries.
        self.samples: List[Tuple[float, str, float]] = []
        #: ``(time, key, running total)`` of what the wrappers count
        #: themselves (rows, bytes, refs) — one entry per event.
        self.events: List[Tuple[float, str, float]] = []
        self.counts: Dict[str, float] = {}
        #: Objects the wrappers saw, by role — how counters public on an
        #: instance (``engine.stats()``, ``replica.stats``) are reached in a
        #: process whose entry point builds that instance internally.
        self.seen: Dict[Any, Any] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._originals: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- thread state
    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            self._local.state = _ThreadState()
            return self._local.state

    def set_request(self, request: Optional[int]) -> None:
        """Tag every span this thread records from now on with ``request``."""
        self.state().request = request

    # --------------------------------------------------------------- recording
    def span(self, name: str):
        """Context manager recording one span around a block of driver code."""
        return _SpanBlock(self, name)

    def count(self, key: str, amount: float = 1.0) -> None:
        total = self.counts[key] = self.counts.get(key, 0.0) + amount
        self.events.append((time.perf_counter(), key, total))

    def sample(self, values: Dict[str, float]) -> None:
        now = time.perf_counter()
        for key, value in values.items():
            self.samples.append((now, key, float(value)))

    # ---------------------------------------------------------------- wrapping
    def wrap(
        self,
        name: str,
        function: Callable,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``function`` timed as a span called ``name``.

        Re-entrancy guard: while a span of this name is open on the calling
        thread, nested calls run unrecorded — a recursive function
        (``encode_value``) or a method delegating to its sibling of the same
        name records only its outermost call.  ``after(tracer, args,
        result)`` runs once the span has closed, outside the timed region.
        """
        tracer = self
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        process = self.process

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = tracer.state()
            active = state.active
            if name in active:
                return function(*args, **kwargs)
            active.add(name)
            stack = state.stack
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active.discard(name)
                spans.append(
                    (process, state.thread, span_id, parent, name, start, end, state.request)
                )
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def observe(self, function: Callable, after: Callable) -> Callable:
        """``function`` with ``after(tracer, args, result)`` run on return, untimed."""
        tracer = self

        @functools.wraps(function)
        def observed(*args, **kwargs):
            result = function(*args, **kwargs)
            after(tracer, args, result)
            return result

        return observed

    def wrap_gate(self, name: str, function: Callable) -> Callable:
        """A store gate (``write_batch`` / ``read_view``) timed at its edges.

        The call returns a context manager; what is timed is the wait from
        the call until its body is entered (``<name>.wait``), the exit
        (``<name>.exit`` — for a write batch, the commit) and, as a hold
        interval rather than a span, the time in between.  Only the
        outermost gate of a thread is recorded; nested ones are counter
        bumps in the program and would only add tracing cost here.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = tracer.state()
            if name in state.active:
                return function(*args, **kwargs)
            return _TimedGate(tracer, state, name, function(*args, **kwargs))

        return traced

    def _record(self, state: _ThreadState, name: str, start: float, end: float) -> None:
        parent = state.stack[-1] if state.stack else 0
        self.spans.append(
            (self.process, state.thread, next(self._ids), parent, name, start, end, state.request)
        )

    # -------------------------------------------------------------- patching
    def patch_method(self, cls: type, attr: str, name: str, after=None, gate: bool = False) -> None:
        """Replace ``cls.attr`` (plain, class or static method) with a wrapper."""
        original = cls.__dict__[attr]
        make = self.wrap_gate if gate else functools.partial(self.wrap, after=after)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(name, original.__func__))
        elif isinstance(original, staticmethod):
            replacement = staticmethod(make(name, original.__func__))
        else:
            replacement = make(name, original)
        self._originals.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def patch_function(
        self,
        module_name: str,
        attr: str,
        name: str,
        after=None,
        recursive: bool = False,
        only: Optional[Sequence[str]] = None,
    ) -> None:
        """Replace a module-level function at every ``repro`` import site.

        ``from x import f`` copies the binding, so patching only the
        defining module would miss most callers: every loaded ``repro``
        module whose attribute *is* the original function gets the wrapper
        (``only`` narrows that to the named modules; an empty ``name`` runs
        the hook without recording a span).  For a ``recursive`` function
        the defining module keeps the original, so its self-calls stay
        untraced and free.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = self.wrap(name, original, after=after) if name else self.observe(original, after)
        for loaded_name, module in list(sys.modules.items()):
            if module is None or not loaded_name.startswith("repro"):
                continue
            if only is not None and loaded_name not in only:
                continue
            if recursive and loaded_name == module_name:
                continue
            if module.__dict__.get(attr) is original:
                self._originals.append((module, attr, original))
                setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # ------------------------------------------------------------------ output
    def payload(self) -> Dict[str, Any]:
        return {
            "process": self.process,
            "pid": os.getpid(),
            "spans": self.spans,
            "holds": self.holds,
            "samples": self.samples,
            "events": self.events,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.payload()))


class _SpanBlock:
    __slots__ = ("tracer", "name", "state", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.state = state = self.tracer.state()
        self.span_id = next(self.tracer._ids)
        self.parent = state.stack[-1] if state.stack else 0
        state.stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        state = self.state
        state.stack.pop()
        self.tracer.spans.append(
            (self.tracer.process, state.thread, self.span_id, self.parent,
             self.name, self.start, end, state.request)
        )


class _TimedGate:
    __slots__ = ("tracer", "state", "name", "inner", "called", "entered")

    def __init__(self, tracer: Tracer, state: _ThreadState, name: str, inner: Any):
        self.tracer = tracer
        self.state = state
        self.name = name
        self.inner = inner
        self.called = time.perf_counter()

    def __enter__(self):
        value = self.inner.__enter__()
        self.entered = time.perf_counter()
        self.state.active.add(self.name)
        self.tracer._record(self.state, self.name + ".wait", self.called, self.entered)
        return value

    def __exit__(self, *exc):
        leaving = time.perf_counter()
        try:
            return self.inner.__exit__(*exc)
        finally:
            released = time.perf_counter()
            self.state.active.discard(self.name)
            self.tracer._record(self.state, self.name + ".exit", leaving, released)
            self.tracer.holds.append((self.name, self.entered, released))


class NullTracer:
    """The untraced run's tracer: records nothing, costs one call per use."""

    seen: Dict[Any, Any] = {}

    def span(self, name: str):
        return _NULL_BLOCK

    def set_request(self, request: Optional[int]) -> None:
        pass

    def sample(self, values: Dict[str, float]) -> None:
        pass


class _NullBlock:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_BLOCK = _NullBlock()


# ---------------------------------------------------------------- boundaries
def _after_read_csv(tracer: Tracer, args: tuple, result: Any) -> None:
    try:
        tracer.count("tabular.input_bytes", os.stat(args[0]).st_size)
    except OSError:
        pass  # vanished after the read; the span is recorded either way


def _after_scan(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("crawler.refs_scanned", len(result))


def _after_profile_table(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("profiler.tables", 1)
    tracer.count("profiler.columns", len(result.column_profiles))


def _after_put_many(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("embeddings.vectors", len(args[2]) if len(args) > 2 else 0)


def _after_put(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("embeddings.vectors", 1)


def _after_abstract(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("pipelines.scripts", 1)


def _after_plan(tracer: Tracer, args: tuple, result: Any) -> None:
    """Count the pairs this plan scored: the builder's counters since its last plan."""
    stats = args[0].pruning_stats
    previous = tracer.seen.get(("pruning", id(args[0])), {})
    for key in ("scored_pairs", "candidate_pairs"):
        tracer.count(f"kg.similarity_{key}", stats[key] - previous.get(key, 0))
    tracer.seen[("pruning", id(args[0]))] = dict(stats)


def _after_apply(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("kg.similarity_edges", len(result))


def _after_evaluate(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.seen["engine"] = args[0]
    tracer.count("sparql.queries", 1)
    tracer.count("sparql.rows_out", len(result.rows))


def _after_sync(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.seen["replica"] = args[0]
    tracer.sample({f"replica.{key}": value for key, value in args[0].stats.items()})


def _after_dispatch(tracer: Tracer, args: tuple, result: Any) -> None:
    """Sample the endpoint's cumulative counters at each request boundary."""
    tracer.sample(store_counters(args[0].store))
    tracer.sample(engine_counters(tracer.seen.get("engine")))


def _after_cv(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("ml.cv_fits", 1)


def _after_map(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("parallel.maps", 1)
    if args[0].last_fallback_reason is not None:
        tracer.count("parallel.fallbacks", 1)


def _after_server_recv(tracer: Tracer, args: tuple, result: Any) -> None:
    """Server side of a connection: a ``call`` frame opens request ``k``.

    With one closed-loop connection an endpoint serves one request at a
    time, so its k-th ``call`` frame is the driver's k-th call — replica
    spans get the driver's request id with no change to the wire.
    """
    if isinstance(result, dict) and result.get("method") == "call":
        state = tracer.state()
        state.request = tracer.counts.get("serving.calls_received", 0)
        tracer.count("serving.calls_received", 1)


def _after_server_send(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.state().request = None


def store_counters(store: Any) -> Dict[str, float]:
    """The cumulative counters a ``QuadStore`` exposes, under ledger keys."""
    return {
        "rdf.commit_version": store.commit_version,
        "rdf.rows_version": store.version,
        "rdf.shard_loads": getattr(store.backend, "shard_loads", 0),
        "rdf.terms": store.dictionary.next_id,
    }


def service_counters(service: Any) -> Dict[str, float]:
    return {f"service.{key}": value for key, value in service.stats.items()}


def engine_counters(engine: Any) -> Dict[str, float]:
    """``SPARQLEngine.stats()`` flattened (nothing for an engine not yet seen)."""
    if engine is None:
        return {}
    stats = engine.stats()
    return {
        "sparql.pattern_memo_hits": stats["pattern_memo"]["hits"],
        "sparql.pattern_memo_misses": stats["pattern_memo"]["misses"],
        "sparql.filter_memo_hits": stats["filter_memo"]["hits"],
        "sparql.filter_memo_misses": stats["filter_memo"]["misses"],
    }


#: The layer boundaries: (module, class or None, attribute, span name, hook).
#: Every entry is a public name of the program; span names are
#: ``<layer>.<what>`` with the layer a module under ``src/repro/``.
BOUNDARIES: List[Tuple[str, Optional[str], str, str, Optional[Callable]]] = [
    ("repro.tabular.io", None, "read_csv", "tabular.read_csv", _after_read_csv),
    ("repro.tabular.table", "Table", "content_fingerprint", "tabular.fingerprint", None),
    ("repro.crawler.crawler", "LakeCrawler", "scan_once", "crawler.scan", None),
    ("repro.crawler.sources", "DirectorySource", "scan", "crawler.list", _after_scan),
    ("repro.crawler.sources", "DirectorySource", "load", "crawler.load", None),
    # profile_tables fans profile_table out through JobExecutor.map: two span
    # names, or the guard would hide the inner one and the executor's span
    # would own the profiler's work.  Same for the abstractor.
    ("repro.profiler.profile", "DataProfiler", "profile_tables", "profiler.profile_tables", None),
    ("repro.profiler.profile", "DataProfiler", "profile_table", "profiler.profile_table", _after_profile_table),
    ("repro.embeddings.colr", "ColRModelSet", "embed_column_values", "embeddings.embed", None),
    ("repro.embeddings.store", "EmbeddingStore", "put_many", "embeddings.put", _after_put_many),
    ("repro.embeddings.store", "EmbeddingStore", "put", "embeddings.put", _after_put),
    ("repro.embeddings.store", "EmbeddingStore", "search", "embeddings.search", None),
    ("repro.pipelines.abstraction", "PipelineAbstractor", "abstract_scripts", "pipelines.abstract_scripts", None),
    ("repro.pipelines.abstraction", "PipelineAbstractor", "abstract_script", "pipelines.abstract_script", _after_abstract),
    ("repro.kg.dataset_graph", "DataGlobalSchemaBuilder", "plan_incremental", "kg.similarity_plan", _after_plan),
    ("repro.kg.dataset_graph", "DataGlobalSchemaBuilder", "apply_incremental", "kg.similarity_apply", _after_apply),
    ("repro.kg.governor", "KGGovernor", "add_data_lake", "kg.add_tables", None),
    ("repro.kg.governor", "KGGovernor", "refresh_table", "kg.refresh", None),
    ("repro.kg.governor", "KGGovernor", "retract_table", "kg.retract", None),
    ("repro.kg.governor", "KGGovernor", "add_pipelines", "kg.add_pipelines", None),
    ("repro.kg.governor", "KGGovernor", "save", "kg.save", None),
    ("repro.kg.governor", "KGGovernor", "open", "kg.open", None),
    ("repro.kg.service", "GovernorService", "submit_table", "kg.submit", None),
    ("repro.kg.service", "GovernorService", "submit_refresh", "kg.submit", None),
    ("repro.kg.service", "GovernorService", "submit_retract", "kg.submit", None),
    ("repro.kg.service", "GovernorService", "submit_pipelines", "kg.submit", None),
    ("repro.rdf.store", "QuadStore", "flush", "rdf.flush", None),
    ("repro.sparql.parser", None, "parse_query", "sparql.parse", None),
    ("repro.sparql.engine", "SPARQLEngine", "evaluate", "sparql.evaluate", _after_evaluate),
    ("repro.sparql.engine", "SelectResult", "to_table", "sparql.to_table", None),
    ("repro.serving.server", "RequestDispatcher", "dispatch", "serving.dispatch", _after_dispatch),
    ("repro.serving.server", None, "compute_delta", "serving.compute_delta", None),
    ("repro.serving.replica", "Replica", "sync", "serving.sync", _after_sync),
    ("repro.serving.client", "RemoteLiDSClient", "delta", "serving.pull", None),
    ("repro.automation.cleaning", "CleaningRecommender", "recommend_cleaning_operations", "automation.recommend", None),
    ("repro.automation.cleaning", "CleaningRecommender", "apply_cleaning_operations", "automation.apply", None),
    ("repro.automation.cleaning", "CleaningRecommender", "train_from_kg", "automation.train", None),
    ("repro.automation.transformation", "TransformationRecommender", "recommend_transformations", "automation.recommend", None),
    ("repro.automation.transformation", "TransformationRecommender", "apply_transformations", "automation.apply", None),
    ("repro.automation.transformation", "TransformationRecommender", "train_from_kg", "automation.train", None),
    ("repro.automl.kgpip", "KGpipAutoML", "recommend_ml_models", "automl.recommend", None),
    ("repro.automl.kgpip", "KGpipAutoML", "search", "automl.search", None),
    ("repro.automl.evolution.priors", "PriorBook", "from_client", "automl.prior_harvest", None),
    ("repro.ml.model_selection", None, "cross_val_f1", "ml.cv_fit", _after_cv),
    ("repro.parallel.executor", "JobExecutor", "map", "parallel.map", _after_map),
]

#: The store's two gates, timed at their edges (see :meth:`Tracer.wrap_gate`).
GATES = [("write_batch", "rdf.write_batch"), ("read_view", "rdf.read_view")]

#: ``LiDSClient`` read methods, one span name each (``interfaces.<method>``).
CLIENT_READS = [
    "query",
    "search_keywords",
    "get_unionable_tables",
    "get_joinable_tables",
    "find_unionable_columns",
    "get_path_to_table",
    "get_shortest_path_between_tables",
    "get_top_k_library_used",
    "get_top_used_libraries",
    "get_pipelines_calling_libraries",
    "statistics",
]


def install(process: str) -> Tracer:
    """Wrap every boundary in this process; returns the recording tracer.

    ``process`` is the role (``driver``, ``writer``, ``replica``) stamped
    on every span.
    """
    tracer = Tracer(process)
    # Import everything first so ``patch_function`` sees every import site.
    for module_name in sorted({entry[0] for entry in BOUNDARIES} | {
        "repro.interfaces.api", "repro.serving", "repro.crawler", "repro.automl.evolution.fitness",
    }):
        importlib.import_module(module_name)
    for module_name, class_name, attr, name, after in BOUNDARIES:
        if class_name is None:
            tracer.patch_function(module_name, attr, name, after=after)
        else:
            cls = getattr(importlib.import_module(module_name), class_name)
            tracer.patch_method(cls, attr, name, after=after)
    store_cls = importlib.import_module("repro.rdf.store").QuadStore
    for attr, name in GATES:
        tracer.patch_method(store_cls, attr, name, gate=True)
    api = importlib.import_module("repro.interfaces.api")
    for method in CLIENT_READS:
        tracer.patch_method(api.KGLiDS, method, f"interfaces.{method}")
    # The two ends of a connection are different work: an endpoint reads a
    # request that has arrived and writes its answer; a client's receive is
    # mostly a wait for the endpoint.  Endpoint sites first — the later
    # calls only find the sites still holding the original.  The writer's
    # threaded handlers *block* in recv_frame between requests, so there it
    # is observed for the request id but not timed: a span would own the
    # handler's idle time.
    writer, replica = "repro.serving.server", "repro.serving.replica"
    protocol = "repro.serving.protocol"
    tracer.patch_function(protocol, "recv_frame", "", _after_server_recv, only=(writer,))
    tracer.patch_function(protocol, "recv_frame", "serving.recv", _after_server_recv, only=(replica,))
    tracer.patch_function(protocol, "send_frame", "serving.send", _after_server_send, only=(writer, replica))
    tracer.patch_function(protocol, "recv_frame", "serving.client_recv")
    tracer.patch_function(protocol, "send_frame", "serving.client_send")
    tracer.patch_function(protocol, "encode_value", "serving.encode", recursive=True)
    tracer.patch_function(protocol, "decode_value", "serving.decode", recursive=True)
    _count_received_bytes(tracer)
    return tracer


def _count_received_bytes(tracer: Tracer) -> None:
    """Count frame bytes where they are read — no span, one add per read."""
    protocol = importlib.import_module("repro.serving.protocol")
    original = protocol._recv_exact

    def counting(sock, count):
        tracer.count("serving.bytes_received", count)
        return original(sock, count)

    tracer._originals.append((protocol, "_recv_exact", original))
    protocol._recv_exact = counting


def span_cost(samples: int = 20000) -> float:
    """Seconds one wrapper adds to one call, measured on a no-op."""
    tracer = Tracer("calibration")

    def noop():
        return None

    wrapped = tracer.wrap("calibration.noop", noop)
    start = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / samples)


# ----------------------------------------------------------------- arithmetic
def thread_segments(spans: Sequence[Span]) -> List[Tuple[float, float, str]]:
    """One thread's spans flattened into disjoint ``(start, end, name)``.

    At each instant the deepest open span owns the time, which is the
    definition of self time (a span's duration minus the part its child
    spans cover) kept as intervals, so that they can be intersected with
    other threads' intervals.
    """
    segments: List[Tuple[float, float, str]] = []
    open_spans: List[Tuple[float, str]] = []  # (end, name), innermost last
    cursor = 0.0

    def close_until(limit: float) -> None:
        nonlocal cursor
        while open_spans and open_spans[-1][0] <= limit:
            end, name = open_spans.pop()
            if end > cursor:
                segments.append((cursor, end, name))
                cursor = end

    # Parents sort before their children: earlier start, then later end.
    for _, _, _, _, name, start, end, _ in sorted(spans, key=lambda s: (s[5], -s[6])):
        close_until(start)
        if open_spans and start > cursor:
            segments.append((cursor, start, open_spans[-1][1]))
        cursor = max(cursor, start)
        open_spans.append((end, name))
    close_until(float("inf"))
    return segments


def chain_of(process: str, thread: str) -> Tuple[str, int]:
    """``(chain, level)`` of a thread: who waits on whom.

    A chain is one sequence of blocking steps; within it a higher level is
    a callee of the lower ones, so while it runs, the callers below are
    waiting and the time is the callee's.  Every workload is one chain: the
    driver's main thread calls its own helper threads (crawler load
    threads, the governor's scheduler), the replica — which calls the
    writer's connection handlers — and, on ``serve_ingest``, the writer's
    control loop, which hands the table to the writer's scheduler.  That
    scheduler ranks above everything: nothing it does waits on another
    traced thread.
    """
    if process == "writer":
        if "process_request_thread" in thread:
            return "main", 3
        return "main", 1 if thread == "MainThread" else 4
    if process == "replica":
        return "main", 2
    return "main", 0 if thread == "MainThread" else 1


def exclusive_times(
    spans: Sequence[Span], window: Tuple[float, float]
) -> Dict[str, Dict[Tuple[str, str], float]]:
    """Chain -> ``(process, span name)`` -> seconds of the window it owns.

    Within a chain each instant is given to one span only: threads are
    taken callee-first (:func:`chain_of`), and a thread's segment keeps
    only the part no callee already covers.  So a caller's wait on traced
    work counts for the work, per-layer times add up to at most the window,
    and what is left over is the part of the window no span explains.
    """
    lo, hi = window
    by_thread: Dict[Tuple[str, str], List[Span]] = {}
    for span in spans:
        if span[6] > lo and span[5] < hi:
            by_thread.setdefault((span[0], span[1]), []).append(span)
    chains: Dict[str, List[Tuple[int, List[Tuple[float, float, Tuple[str, str]]]]]] = {}
    for (process, thread), thread_spans in by_thread.items():
        chain, level = chain_of(process, thread)
        segments = [(a, b, (process, name)) for a, b, name in thread_segments(thread_spans)]
        chains.setdefault(chain, []).append((level, segments))
    result: Dict[str, Dict[Tuple[str, str], float]] = {}
    for chain, threads in chains.items():
        totals: Dict[Tuple[str, str], float] = {}
        covered_starts = np.empty(0)
        covered_ends = np.empty(0)
        for level in sorted({level for level, _ in threads}, reverse=True):
            segments = [s for lvl, segs in threads if lvl == level for s in segs]
            if not segments:
                continue
            starts = np.clip(np.array([s[0] for s in segments]), lo, hi)
            ends = np.clip(np.array([s[1] for s in segments]), lo, hi)
            own = (ends - starts) - _covered_length(covered_starts, covered_ends, starts, ends)
            for (_, _, name), seconds in zip(segments, own):
                if seconds > 0:
                    totals[name] = totals.get(name, 0.0) + float(seconds)
            covered_starts, covered_ends = _union(
                np.concatenate([covered_starts, starts]), np.concatenate([covered_ends, ends])
            )
        result[chain] = totals
    return result


def _union(starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Merge intervals into a sorted disjoint set."""
    if len(starts) == 0:
        return starts, ends
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    running_end = np.maximum.accumulate(ends)
    new_group = np.empty(len(starts), dtype=bool)
    new_group[0] = True
    new_group[1:] = starts[1:] > running_end[:-1]
    group_starts = starts[new_group]
    last_of_group = np.append(np.flatnonzero(new_group)[1:] - 1, len(starts) - 1)
    return group_starts, running_end[last_of_group]


def _covered_length(
    covered_starts: np.ndarray, covered_ends: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Length of each ``[start, end)`` lying inside the disjoint covered set."""
    if len(covered_starts) == 0:
        return np.zeros(len(starts))
    lengths = np.concatenate([[0.0], np.cumsum(covered_ends - covered_starts)])

    def covered_up_to(points: np.ndarray) -> np.ndarray:
        index = np.searchsorted(covered_starts, points, side="right")
        before = lengths[np.maximum(index - 1, 0)] * (index > 0)
        last = np.maximum(index - 1, 0)
        inside = np.clip(points - covered_starts[last], 0.0, covered_ends[last] - covered_starts[last])
        return before + inside * (index > 0)

    return covered_up_to(ends) - covered_up_to(starts)


def counter_delta(
    readings: Sequence[Tuple[float, str, float]],
    key: str,
    window: Tuple[float, float],
    events: bool,
) -> float:
    """Growth of a cumulative counter over the window.

    ``events`` readings are one per event (a wrapper's own count): the total
    at an edge is the last reading at or before it, zero when there is none.
    Otherwise the readings are samples of a counter the program keeps, taken
    at boundaries *around* the window: the last one at or before the start
    against the first one at or after the end (the nearest on the inner side
    when an edge has none), so nothing counted inside the window is missed.
    """
    series = sorted((when, value) for when, reading_key, value in readings if reading_key == key)
    if not series:
        return 0.0
    times = [when for when, _ in series]
    before_start = bisect_right(times, window[0])
    if events:
        before_end = bisect_right(times, window[1])
        first = series[before_start - 1][1] if before_start else 0.0
        last = series[before_end - 1][1] if before_end else 0.0
        return last - first
    first = series[max(before_start - 1, 0)][1]
    after_end = bisect_left(times, window[1])
    return series[min(after_end, len(series) - 1)][1] - first
