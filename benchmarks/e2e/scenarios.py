"""The four workloads as runnable scenarios: set-up, measured window, checks.

Each scenario drives the program **as shipped** — default constructor
arguments everywhere; sqlite persistence is the one non-default choice —
from one driver process.  A scenario is used like this (see ``run.py``)::

    scenario.prepare(workdir, limit)  # timed once: inputs on disk, the snapshot
    scenario.start()                  # timed, repeatable: processes, clients, warm-up
    scenario.stop(); scenario.start() # ...as often as the run wants a set-up sample
    window = scenario.run(limit)      # the measured window
    scenario.check(window)            # correctness; failures count in `failed`
    scenario.stop()                   # in `finally`: stops every process

The window is one closed loop from a single driver thread: the next op is
sent when the last one has answered, whichever process answers it, so at
any moment one process of the run is working and the rest wait.  It is made
of whole **blocks** of identical work (``workloads.py``); the end-to-end
timings are medians over the blocks.  Latency samples are never filtered:
an op that raised, timed out or answered wrongly stays in the sample and is
counted in ``failed``.
"""

from __future__ import annotations

import os
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crawler import DirectorySource, LakeCrawler
from repro.interfaces import LiDSClient
from repro.kg import GovernorService, KGGovernor
from repro.kg.ontology import DATASET_GRAPH, LiDSOntology
from repro.kg.storage import KGLiDSStorage
from repro.ml.model_selection import DegenerateFoldWarning
from repro.rdf import RDF, QuadStore
from repro.rdf.terms import term_n3
from repro.serving import RemoteLiDSClient
from repro.tabular import DataLake, Table

import fixtures
import host
import tracing
import workloads
from fixtures import TableKey

clock = time.perf_counter


@dataclass
class Limit:
    """When a window ends: after ``units`` blocks, else at ``seconds``."""

    seconds: float
    units: Optional[int] = None

    def reached(self, done: int, started: float) -> bool:
        if self.units is not None:
            return done >= self.units
        return clock() - started >= self.seconds

    def most_units(self, per_second: float) -> int:
        """An upper bound on the blocks a window can hold, for sizing inputs."""
        return self.units if self.units is not None else int(self.seconds * per_second) + 4


@dataclass
class Window:
    """Everything one measured window produced."""

    start: float = 0.0
    end: float = 0.0
    #: One latency per op of the latency sample, with its class and text.
    latencies_ms: List[float] = field(default_factory=list)
    classes: List[str] = field(default_factory=list)
    texts: List[str] = field(default_factory=list)
    #: ``(first, stop, ops)`` per block: its slice of the latency sample and
    #: the ops it counts in ``ops_per_s`` (on ``ingest`` more than latency
    #: samples: every table event counts, the sample is one value per round).
    blocks: List[Tuple[int, int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    quality: List[float] = field(default_factory=list)
    #: Numbers only this scenario has (bulk round, store bytes, catch-up...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: The op list as executed, for ``--check-repeat``.
    executed: List[Any] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ops(self) -> int:
        return sum(ops for _, _, ops in self.blocks)

    def attempt(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def close_block(self, first: int, ops: Optional[int] = None) -> None:
        """The latencies recorded since index ``first`` are one block."""
        stop = len(self.latencies_ms)
        self.blocks.append((first, stop, stop - first if ops is None else ops))


def domain(dataset: str) -> str:
    """``economics_12`` -> ``economics``: the schema family of a generated dataset."""
    return dataset.rsplit("_", 1)[0]


def precision_at_3(answer: Table, anchor_dataset: str, candidates: int) -> float:
    """Share of the top three answers that are unionable with the anchor.

    The generator's ground truth: a table is a partition of a base table
    built from one of five domain schemas, so tables of one domain union
    and tables of two do not.  (Its per-base ``ground_truth`` map is
    narrower than that once a lake holds more than five bases, as all of
    these do.)  ``candidates`` is how many unionable tables the lake holds,
    which caps the hits possible.
    """
    top = answer.column("dataset").values[:3]
    return sum(domain(d) == domain(anchor_dataset) for d in top) / min(3, candidates)


class Scenario:
    """Shared shape of the four workloads."""

    name = ""

    def __init__(self, sizes: Dict[str, Any], seed: int, tracer: Any, trace: bool):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.trace = trace
        self.starts = 0

    def prepare(self, workdir: Path, limit: Limit) -> None:
        """Once per run: the inputs on disk and, where there is one, the snapshot."""
        raise NotImplementedError

    def start(self) -> None:
        """What the program does to come up on those inputs; undone by :meth:`stop`."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop what :meth:`start` started; idempotent, safe after a failed start."""
        raise NotImplementedError

    def fresh_directory(self, label: str) -> Path:
        """A directory of this start's own, so that a later start finds none of its files."""
        self.starts += 1
        path = self.workdir / f"{label}_{self.starts}"
        path.mkdir()
        return path

    def build_snapshot(self, tables: Sequence[Table]) -> Path:
        """Write ``tables`` + their corpus to disk and govern them into a saved directory.

        Done by the ``snapshot`` child, so the lake was governed by another
        process, as a replica's or a read-only client's would have been.
        Records the sizes the end-to-end metrics use.
        """
        workdir = self.workdir
        lake_dir, corpus, snapshot = workdir / "lake", workdir / "corpus.json", workdir / "snapshot"
        self.input_bytes = fixtures.write_lake(tables, lake_dir)
        fixtures.write_corpus(tables, self.sizes["pipelines_per_table"], corpus)
        fixtures.build_snapshot(lake_dir, corpus, snapshot)
        self.store_bytes = fixtures.directory_bytes(snapshot)
        self.rdf_store_bytes = (snapshot / "graph.sqlite3").stat().st_size
        return snapshot

    def end_block(self, window: Window, first: int, ops: Optional[int] = None) -> None:
        """Close the block begun at latency index ``first``; read peak RSS if it is the one.

        Memory is taken at a stated amount of work, not at the window's end:
        stores and logs grow with every block, and a faster program would
        fit more of them in the window.
        """
        window.close_block(first, ops)
        if len(window.blocks) == self.sizes["rss_block"]:
            window.extra["peak_rss_mb"] = self.peak_rss_mb()

    def peak_rss_mb(self) -> float:
        """Sum of peak RSS over every process of the run that runs repo code."""
        return sum(host.peak_rss_mb(pid) for pid in [os.getpid()] + self.pids())

    def record_snapshot(self, window: Window) -> None:
        """The snapshot's sizes, for the workloads that serve one."""
        window.extra["store_bytes"] = self.store_bytes
        window.extra["rdf.store_bytes"] = self.rdf_store_bytes
        window.extra["input_bytes"] = self.input_bytes

    def run(self, limit: Limit) -> Window:
        raise NotImplementedError

    def check(self, window: Window) -> None:
        raise NotImplementedError

    def pids(self) -> List[int]:
        """Child processes running repo code during the window."""
        return []

    def counters(self) -> Dict[str, float]:
        """Cumulative counters the program exposes in *this* process.

        Read at both edges of the window and differenced; endpoints in
        other processes sample their own at request boundaries.
        """
        return {}

    def child_traces(self) -> List[Dict[str, Any]]:
        return []


# ---------------------------------------------------------------------- ingest
class Ingest(Scenario):
    """crawler -> service -> sqlite governor over a drifting directory."""

    name = "ingest"
    #: Upper bound on blocks per second, for sizing the reserve.
    BLOCKS_PER_SECOND = 2.5
    #: Set by start(); None whenever nothing is running (stop() is safe then).
    governor: Optional[KGGovernor] = None

    def prepare(self, workdir: Path, limit: Limit) -> None:
        sizes = self.sizes
        shape = sizes["drift"]
        self.workdir = workdir
        rounds = limit.most_units(self.BLOCKS_PER_SECOND) * sizes["block_rounds"]
        lake = fixtures.generate_lake(sizes["lake_tables"] + rounds * shape["new"], sizes["rows"])
        initial, reserve = lake[: sizes["lake_tables"]], lake[sizes["lake_tables"]:]
        self.root = workdir / "lake"
        self.reserve_root = workdir / "reserve"
        fixtures.write_lake(initial, self.root)
        fixtures.write_lake(reserve, self.reserve_root)
        self.scripts = fixtures.write_corpus(
            initial, sizes["pipelines_per_table"], workdir / "corpus.json"
        )

        def entries(tables: Sequence[Table]) -> List[Tuple[str, int]]:
            return [(f"{table.dataset}/{table.name}.csv", table.num_rows) for table in tables]

        self.initial = [(table.dataset, table.name) for table in initial]
        self.reserve = entries(reserve)
        self.edits = list(workloads.drift_edits(self.seed, entries(initial), self.reserve, shape))

    def start(self) -> None:
        self.directory = self.fresh_directory("governed")
        graph = QuadStore.sqlite(self.directory / "graph.sqlite3")
        self.governor = KGGovernor(storage=KGLiDSStorage(graph=graph))
        self.service = GovernorService(self.governor)
        self.crawler = LakeCrawler(self.service, [DirectorySource(self.root)])

    def stop(self) -> None:
        if self.governor is not None:
            self.crawler.close()
            self.service.close()
            self.governor.close()
            self.governor = None
            shutil.rmtree(self.directory, ignore_errors=True)

    def counters(self) -> Dict[str, float]:
        storage = self.governor.storage
        return {
            **tracing.store_counters(storage.graph),
            **tracing.service_counters(self.service),
            **tracing.engine_counters(self.tracer.seen.get("engine")),
        }

    def _events(self) -> int:
        totals = self.crawler.stats()["totals"]
        return totals["submitted"] + totals["refreshed"] + totals["retracted"]

    def run(self, limit: Limit) -> Window:
        window = Window()
        tracer = self.tracer
        sizes = self.sizes
        window.start = clock()
        # Round 0: the bulk crawl of the whole lake, then the pipeline corpus.
        # Reported on its own (crawler.bulk_round_s) and kept out of the
        # blocks, which hold drift rounds only.
        with tracer.span("driver.bulk_round"):
            self.crawler.scan_once()
            self.service.drain()
            self.service.submit_pipelines(self.scripts).result(timeout=workloads.OP_TIMEOUT_S * 4)
            self.service.drain()
        window.extra["crawler.bulk_round_s"] = clock() - window.start
        governed = self._events()
        window.attempt(governed == sizes["lake_tables"], "bulk round left tables ungoverned")
        # Checkpoint the freshly governed lake.  Bytes stored per input byte
        # is taken here, where it depends on the lake alone; after the drift
        # it also depends on how many rounds the window happened to hold.
        started = clock()
        with tracer.span("driver.checkpoint"):
            self.governor.save(self.directory)
        window.extra["kg.save_s"] = clock() - started
        window.extra["store_bytes"] = fixtures.directory_bytes(self.directory)
        window.extra["input_bytes"] = fixtures.directory_bytes(self.root, "*.csv")
        # Quality is asked here too, of every table, for the same reason.
        # After the last round the lake is whatever the seed's edits left
        # (one or two tables in a hundred then miss, on some seeds), and
        # check() holds that graph equal to a one-shot govern's — so answers
        # there would say nothing more about the write path.
        live = LiDSClient(self.service)
        for dataset, table in self.initial:
            candidates = sum(domain(other) == domain(dataset) for other, _ in self.initial) - 1
            answer = live.get_unionable_tables(dataset, table, 10)
            window.quality.append(precision_at_3(answer, dataset, candidates))
        rounds = 0
        while not limit.reached(len(window.blocks), window.start):
            if len(self.edits) - rounds < sizes["block_rounds"]:
                break  # reserve exhausted; the window just ends early
            first, before = len(window.latencies_ms), governed
            for edit in self.edits[rounds: rounds + sizes["block_rounds"]]:
                workloads.apply_drift(self.root, self.reserve_root, edit, self.reserve)
                tracer.set_request(rounds)
                changed_at = clock()
                with tracer.span("driver.op"):
                    self.crawler.scan_once()
                    self.service.drain()
                elapsed_ms = (clock() - changed_at) * 1000.0
                tracer.set_request(None)
                expected = len(edit.new) + len(edit.changed) + len(edit.deleted)
                done, governed = self._events() - governed, self._events()
                window.latencies_ms.append(elapsed_ms)
                window.classes.append("round")
                for index in range(expected):
                    window.attempt(
                        index < done and elapsed_ms < workloads.OP_TIMEOUT_S * 1000.0,
                        f"round {rounds}: {done} of {expected} events governed",
                    )
                window.executed.append(edit.as_json())
                rounds += 1
            self.end_block(window, first, ops=governed - before)
        window.end = clock()
        return window

    def check(self, window: Window) -> None:
        live = LiDSClient(self.service)
        present = sorted(
            (path.parent.name, path.stem) for path in self.root.rglob("*.csv")
        )
        # Nothing left to do: one more pass over the directory is a no-op.
        window.attempt(self.crawler.scan_once() == 0, "crawler not settled after the last round")
        calls = workloads.identity_calls(present)
        live_answers = [getattr(live, method)(*args) for method, args in calls]
        live_triples = len(self.governor.storage.graph)
        self.governor.save(self.directory)
        window.extra["rdf.store_bytes"] = (self.directory / "graph.sqlite3").stat().st_size
        self.crawler.close()
        self.service.close()
        self.governor.close()
        # The saved directory, reopened read-only, is the same lake...
        reopened = LiDSClient.open(self.directory)
        try:
            window.attempt(
                len(reopened.storage.graph) == live_triples, "reopened triple count differs"
            )
            for (method, args), expected in zip(calls, live_answers):
                answer = getattr(reopened, method)(*args)
                window.attempt(
                    workloads.same_answer(method, answer, expected),
                    f"reopened answer differs: {method}{args}",
                )
            crawled = _dataset_graph(reopened.storage.graph)
        finally:
            reopened.close()
        # ...and the same graph a one-shot govern of the final lake builds.
        # (Dataset graph only: pipelines were linked against round 0's lake.)
        one_shot = KGGovernor()
        try:
            one_shot.add_data_lake(DataLake.from_directory(self.root))
            window.attempt(
                crawled == _dataset_graph(one_shot.storage.graph),
                "crawled graph differs from a one-shot govern of the final lake",
            )
        finally:
            one_shot.close()


def _dataset_graph(store: QuadStore) -> List[str]:
    """The dataset graph as sorted N-Triples lines, less emptied dataset nodes.

    ``retract_table`` leaves dataset nodes in place by design (its
    docstring), so a dataset whose last table was deleted keeps its three
    describing triples; a one-shot govern never creates them.  They are
    left out of the comparison — and noted in the README.
    """
    triples = list(store.triples(graph=DATASET_GRAPH))
    parents = {t.object for t in triples if t.predicate == LiDSOntology.isPartOf}
    emptied = {
        t.subject for t in triples
        if t.predicate == RDF.type and t.object == LiDSOntology.Dataset and t.subject not in parents
    }
    return sorted(
        f"{term_n3(t.subject)} {term_n3(t.predicate)} {term_n3(t.object)}"
        for t in triples
        if t.subject not in emptied
    )


# ----------------------------------------------------------------------- serve
class Serve(Scenario):
    """writer + one replica; closed-loop remote reads on one connection.

    With ``streaming`` every block also has the writer govern one further
    table and retract it again (the ``serve_ingest`` workload).
    """

    name = "serve"
    streaming = False
    #: Pings timed during set-up; their median is ``serving.wire_rtt_ms``.
    PINGS = 20
    #: Set by start(); None whenever nothing is running (stop() is safe then).
    fleet: Optional[fixtures.Fleet] = None
    remote: Optional[RemoteLiDSClient] = None
    #: Span payloads of the last fleet's children, read as it stopped.
    traces: Sequence[Dict[str, Any]] = ()

    def prepare(self, workdir: Path, limit: Limit) -> None:
        sizes = self.sizes
        self.workdir = workdir
        stream_count = sizes["stream_tables"] if self.streaming else 0
        lake = fixtures.generate_lake(sizes["lake_tables"] + stream_count, sizes["rows"])
        served, stream = lake[: sizes["lake_tables"]], lake[sizes["lake_tables"]:]
        self.keys: List[TableKey] = [(table.dataset, table.name) for table in served]
        self.stream: List[TableKey] = [(table.dataset, table.name) for table in stream]
        #: domain -> tables unionable with one of its tables (the others of the domain).
        self.candidates = {
            name: sum(domain(dataset) == name for dataset, _ in self.keys) - 1
            for name in {domain(dataset) for dataset, _ in self.keys}
        }
        self.incoming = workdir / "incoming"
        fixtures.write_lake(stream, self.incoming)
        self.snapshot = self.build_snapshot(served)

    def _blocks(self):
        sizes = self.sizes
        return workloads.serve_blocks(self.seed, self.keys, sizes["zipf"], sizes["block_mixes"], self.stream)

    def start(self) -> None:
        self.fleet = fixtures.Fleet(self.snapshot, self.fresh_directory("fleet"), self.trace)
        self.remote = RemoteLiDSClient(self.fleet.replica_address, pool_size=1)
        self.calls = 0
        # Let lazy shard loads and first-use caches fill before the window:
        # users of a long-running replica do not pay them per request.  The
        # warm-up is the window's first block, run once before it.
        for _, method, args in next(self._blocks()):
            self._op(method, args)
        rtts = []
        for _ in range(self.PINGS):
            started = clock()
            self.remote.ping()
            rtts.append((clock() - started) * 1000.0)
        self.wire_rtt_ms = sorted(rtts)[len(rtts) // 2]

    def stop(self) -> None:
        if self.remote is not None:
            self.remote.close()
            self.remote = None
        if self.fleet is not None:
            self.fleet.close()
            self.traces = self.fleet.child_traces()
            shutil.rmtree(self.fleet.workdir, ignore_errors=True)
            self.fleet = None

    def _call(self, method: str, args: list) -> Any:
        """One ``call`` frame to the replica, numbered like the replica numbers them."""
        self.tracer.set_request(self.calls)
        self.calls += 1
        try:
            with self.tracer.span("driver.op"):
                return getattr(self.remote, method)(*args)
        finally:
            self.tracer.set_request(None)

    def _write(self, command: str, key: TableKey) -> Any:
        """One command to the writer, answered when its ticket has resolved."""
        dataset, table = key
        with self.tracer.span("driver.write"):
            reply = self.fleet.writer.ask(
                {
                    "cmd": command,
                    "path": str(self.incoming / dataset / f"{table}.csv"),
                    "dataset": dataset,
                    "table": table,
                }
            )
        if not reply.get("ok"):
            raise RuntimeError(reply.get("error", "the writer refused"))
        return None

    def _op(self, method: str, args: list) -> Any:
        if method in ("govern", "retract"):
            return self._write(method, tuple(args))
        return self._call(method, args)

    def pids(self) -> List[int]:
        return self.fleet.pids()

    def run(self, limit: Limit) -> Window:
        window = Window()
        window.start = clock()
        for block in self._blocks():
            if limit.reached(len(window.blocks), window.start):
                break
            first = len(window.latencies_ms)
            for kind, method, args in block:
                started = clock()
                try:
                    answer = self._op(method, args)
                    error = ""
                except Exception as raised:  # noqa: BLE001 — any failed op is a failed op
                    answer = None
                    error = f"{type(raised).__name__}: {raised}"
                elapsed_ms = (clock() - started) * 1000.0
                window.latencies_ms.append(elapsed_ms)
                window.classes.append(kind)
                window.texts.append(f"{method}{args}")
                window.executed.append([kind, method, args])
                if not error and elapsed_ms >= workloads.OP_TIMEOUT_S * 1000.0:
                    error = "timeout"
                window.attempt(not error, f"{method}: {error}")
                if kind == "unionable" and answer is not None:
                    window.quality.append(precision_at_3(answer, args[0], self.candidates[domain(args[0])]))
                if kind.startswith("write"):
                    window.extra["last_commit_at"] = clock()
            self.end_block(window, first)
        window.end = clock()
        return window

    def check(self, window: Window) -> None:
        with RemoteLiDSClient(self.fleet.writer_address, pool_size=1) as writer:
            # Catch-up: the replica reaches the writer's version by itself
            # (its lease makes each ping sync first).
            target = writer.commit_version
            waited_from = window.extra.pop("last_commit_at", clock())
            deadline = clock() + workloads.OP_TIMEOUT_S
            while self.remote.commit_version < target and clock() < deadline:
                time.sleep(0.005)
            window.extra["serving.catchup_s"] = clock() - waited_from
            window.attempt(self.remote.commit_version >= target, "replica never caught up")
            replication = self.remote.server_stats()["replication"]
            window.attempt(int(replication["full_pulls"]) == 0, "replica fell back to a full pull")
            for method, args in workloads.identity_calls(self.keys):
                same = workloads.same_answer(method, self._call(method, args), getattr(writer, method)(*args))
                window.attempt(same, f"replica answer differs: {method}{args}")
        window.extra["serving.client_retries"] = float(self.remote.stats["retries"])
        window.extra["serving.wire_rtt_ms"] = self.wire_rtt_ms
        window.extra["kg.open_s"] = self.fleet.writer_open_s
        self.record_snapshot(window)

    def child_traces(self) -> List[Dict[str, Any]]:
        """Span files the last fleet's children wrote on exit (call after :meth:`stop`)."""
        return list(self.traces)


class ServeIngest(Serve):
    name = "serve_ingest"
    streaming = True


# -------------------------------------------------------------------- automate
class Automate(Scenario):
    """Read-only client over a saved lake; cleaning -> transformation -> AutoML sessions."""

    name = "automate"
    #: Set by start(); None whenever nothing is running (stop() is safe then).
    client: Optional[LiDSClient] = None

    def prepare(self, workdir: Path, limit: Limit) -> None:
        sizes = self.sizes
        self.workdir = workdir
        self.snapshot = self.build_snapshot(fixtures.generate_lake(sizes["lake_tables"], sizes["rows"]))
        self.pool = workloads.session_pool(sizes["dataset_rows"])

    def start(self) -> None:
        started = clock()
        self.client = LiDSClient.open(self.snapshot)
        self.open_s = clock() - started
        started = clock()
        self.client.cleaning_recommender.train_from_kg(self.client.storage)
        self.client.transformation_recommender.train_from_kg(self.client.storage)
        self.train_s = clock() - started
        # First-use caches (word vectors, the prior book's queries): one
        # session on the pool's cheapest table before the window.
        self._session(Window(), self.pool[-1])

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def counters(self) -> Dict[str, float]:
        storage = self.client.storage
        return {
            **tracing.store_counters(storage.graph),
            **tracing.engine_counters(self.tracer.seen.get("engine")),
        }

    def run(self, limit: Limit) -> Window:
        window = Window()
        window.extra.update({"automl.evaluations": 0, "automl.screened": 0, "automl.promoted": 0,
                             "automl.cache_hits": 0, "automl.cache_lookups": 0})
        window.start = clock()
        done = 0
        # A block is one pass over the pool — one session per generator — so
        # that every block holds the same work.
        for block in workloads.session_blocks(self.seed, self.sizes["dataset_rows"]):
            if limit.reached(len(window.blocks), window.start):
                break
            first = len(window.latencies_ms)
            for dataset in block:
                self.tracer.set_request(done)
                result = self._session(window, dataset)
                if result is not None:
                    if not window.blocks:
                        # The first pass only: the same searches in every run.
                        window.quality.append(result.best_score)
                    window.extra["automl.evaluations"] += result.evaluations
                    window.extra["automl.screened"] += result.fidelity_stats.get("screen_evaluations", 0)
                    window.extra["automl.promoted"] += result.fidelity_stats.get("promotions", 0)
                    window.extra["automl.cache_hits"] += result.cache_stats.get("hits", 0)
                    window.extra["automl.cache_lookups"] += (
                        result.cache_stats.get("hits", 0) + result.cache_stats.get("misses", 0)
                    )
                window.executed.append([dataset.name, dataset.table.num_rows, dataset.table.num_columns])
                done += 1
            self.end_block(window, first)
        self.tracer.set_request(None)
        window.end = clock()
        return window

    def _session(self, window: Window, dataset: Any) -> Any:
        """The six calls of one session; the AutoML result, or None if that call failed."""
        client = self.client
        table, target = dataset.table, dataset.target
        operations = self._op(window, "recommend_cleaning", lambda: client.recommend_cleaning_operations(table),
                              lambda value: len(value) > 0)
        cleaned = self._op(window, "apply_cleaning", lambda: client.apply_cleaning_operations(operations, table),
                           lambda value: value.num_rows > 0) or table
        recommendation = self._op(window, "recommend_transformations",
                                  lambda: client.recommend_transformations(cleaned, target),
                                  lambda value: value is not None)
        transformed = self._op(window, "apply_transformations",
                               lambda: client.apply_transformations(recommendation, cleaned, target),
                               lambda value: value.num_rows == cleaned.num_rows) or cleaned
        self._op(window, "recommend_models", lambda: client.recommend_ml_models(transformed),
                 lambda value: isinstance(value, Table))
        return self._op(window, "automl", lambda: client.automl(transformed, target, **self.sizes["automl"]),
                        lambda value: 0.0 <= value.best_score <= 1.0 and value.evaluations >= 1)

    def _op(self, window: Window, kind: str, call, valid) -> Any:
        """One timed API call; a raise or an invalid answer is a failed op."""
        started = clock()
        value, error = None, ""
        try:
            with self.tracer.span("driver.op"), warnings.catch_warnings():
                # Tiny folds can hold a single class; the program scores them
                # 0.0 and warns.  That is its documented behaviour, not noise
                # for every run's stderr.
                warnings.simplefilter("ignore", DegenerateFoldWarning)
                value = call()
            if not valid(value):
                error = "invalid answer"
        except Exception as raised:  # noqa: BLE001 — any failed call is a failed op
            value, error = None, f"{type(raised).__name__}: {raised}"
        elapsed_ms = (clock() - started) * 1000.0
        window.latencies_ms.append(elapsed_ms)
        window.classes.append(kind)
        window.attempt(not error and elapsed_ms < workloads.OP_TIMEOUT_S * 1000.0, f"{kind}: {error}")
        return value

    def check(self, window: Window) -> None:
        # Read-only means read-only: the sessions left the saved lake as it was.
        try:
            self.client.governor.retract_table("no_dataset", "no_table")
            window.attempt(False, "read-only client accepted a mutation")
        except PermissionError:
            window.attempt(True)
        window.extra["kg.open_s"] = self.open_s
        window.extra["automation.train_s"] = self.train_s
        self.record_snapshot(window)


SCENARIOS = {cls.name: cls for cls in (Ingest, Serve, ServeIngest, Automate)}
