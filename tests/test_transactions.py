"""All-or-nothing governance: undo-log rollback, crash-safe sqlite commits,
fault injection, retry/quarantine, and idempotent shutdown.

Pins the contracts of the transactional-writes redesign:

* a raising ``write_batch`` body rolls the store back to the exact pre-batch
  state — at *every* fault point, swept exhaustively at the store level and
  strided at the governor level (add / refresh / retract / pipelines);
* sqlite commits are journaled transactions: a crash (severed connection,
  uncommitted transaction) at any point recovers to the previous durable
  commit on reopen, with the ``commit_version`` marker intact;
* hypothesis drives random batch workloads through random fault points and
  the rolled-back store is byte-identical, version-identical, and retryable;
* the fault wrapper defines only its fault points and forwards the rest, so
  a wrapped store reports the same changed graphs and shard files as a bare
  one;
* the governor service retries :class:`TransientError` with capped backoff,
  quarantines repeat offenders (:class:`PoisonTableError` fast-fail), and
  fails — never hangs — tickets stuck behind a dead scheduler;
* sqlite ``database is locked`` errors are retried with bounded backoff;
* every ``close()`` (store, governor, client, service) is idempotent.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.interfaces import LiDSClient
from repro.kg import (
    GovernanceError,
    GovernorService,
    KGGovernor,
    KGLiDSStorage,
    PoisonTableError,
    TransientError,
)
from repro.pipelines.abstraction import PipelineScript
from repro.rdf import (
    DEFAULT_GRAPH,
    FaultInjectingBackend,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    Literal,
    QuadStore,
    QuadStoreBackend,
    SqliteBackend,
    URIRef,
)
from repro.rdf.serialize import serialize_nquads
from repro.tabular import DataLake, Table

EX = "http://example.org/"
G1 = URIRef(EX + "graph/one")
G2 = URIRef(EX + "graph/two")


def u(name: str) -> URIRef:
    return URIRef(EX + name)


def snap(store: QuadStore) -> str:
    return serialize_nquads(store)


def embed_state(storage: KGLiDSStorage):
    """Every stored vector, as comparable bytes."""
    return {
        namespace: {key: vector.tobytes() for key, vector in bucket.items()}
        for namespace, bucket in storage.embeddings._vectors.items()
    }


def make_lake(num_tables: int = 3, rows: int = 8, seed: int = 3, name: str = "txn") -> DataLake:
    """A small lake with overlapping schemas so similarity edges appear."""
    lake = DataLake(name)
    rng = np.random.RandomState(seed)
    for index in range(num_tables):
        dataset = f"ds{index % 2}"
        lake.add_table(
            dataset,
            Table.from_dict(
                f"table_{index}",
                {
                    "amount": list(rng.normal(100, 5, rows)),
                    "quantity": list(rng.randint(1, 50, rows)),
                    "region": ["north", "south", "east", "west"] * (rows // 4),
                },
            ),
        )
    return lake


def seed_store(store: QuadStore) -> None:
    """Committed pre-batch state the sweeps must restore exactly."""
    with store.write_batch():
        store.add(u("s1"), u("p1"), Literal("v1"), graph=G1)
        store.add(u("s1"), u("p2"), Literal(7), graph=G1)
        store.add(u("s2"), u("p1"), u("s1"), graph=G2)
        store.annotate(u("s2"), u("p2"), Literal(0.5), u("score"), Literal(0.9), graph=G2)
        store.add(u("s3"), u("p3"), Literal("default"))


def batch_workload(store: QuadStore) -> None:
    """One batch exercising every undo-logged mutation kind."""
    store.add(u("n1"), u("p1"), Literal("new"), graph=G1)
    store.annotate(u("n1"), u("sim"), u("n2"), u("score"), Literal(0.8), graph=G1)
    store.remove(u("s1"), u("p2"), Literal(7), graph=G1)  # pre-existing triple
    store.add(u("n3"), u("p1"), Literal(1), graph=URIRef(EX + "graph/created"))
    store.remove_graph(G2)  # pre-existing graph
    store.retract_nodes([u("s3")])  # the default graph's one row
    store.add(u("n4"), u("p4"), Literal("tail"), graph=G1)


def faulted_store(path=None):
    inner = SqliteBackend(path) if path is not None else QuadStoreBackend()
    backend = FaultInjectingBackend(inner)
    return QuadStore(backend=backend), backend


def count_batch_points(path=None) -> int:
    """Fault-free dry run: how many fault points one batch workload has."""
    store, backend = faulted_store(path)
    seed_store(store)
    baseline = backend.op_count
    with store.write_batch():
        batch_workload(store)
    return backend.op_count - baseline


# ---------------------------------------------------------------------------
# Store-level sweep: every fault point, in-memory
# ---------------------------------------------------------------------------
class TestStoreRollbackSweep:
    def test_workload_has_enough_fault_points(self):
        assert count_batch_points() >= 8  # adds, removes, drop, retraction, commit

    def test_rollback_is_byte_identical_at_every_fault_point(self):
        total = count_batch_points()
        for point in range(1, total + 1):
            store, backend = faulted_store()
            seed_store(store)
            pre, pre_version = snap(store), store.commit_version
            backend.plan = FaultPlan(at=backend.op_count + point)
            with pytest.raises(InjectedFault):
                with store.write_batch():
                    batch_workload(store)
            assert snap(store) == pre, f"divergence after fault point {point}"
            assert store.commit_version == pre_version
            # The rolled-back store is retryable: the same batch now lands
            # identically to one that never saw a failure.
            with store.write_batch():
                batch_workload(store)
            assert store.commit_version == pre_version + 1

    def test_retry_after_rollback_matches_fault_free_run(self):
        clean, _ = faulted_store()
        seed_store(clean)
        with clean.write_batch():
            batch_workload(clean)

        store, backend = faulted_store()
        seed_store(store)
        backend.plan = FaultPlan(at=backend.op_count + 4)
        with pytest.raises(InjectedFault):
            with store.write_batch():
                batch_workload(store)
        with store.write_batch():
            batch_workload(store)
        assert snap(store) == snap(clean)

    def test_nested_batches_roll_back_as_one(self):
        store, backend = faulted_store()
        seed_store(store)
        pre = snap(store)
        with pytest.raises(InjectedFault):
            with store.write_batch():
                store.add(u("outer"), u("p1"), Literal(1), graph=G1)
                with store.write_batch():  # nested: same transaction
                    store.add(u("inner"), u("p1"), Literal(2), graph=G1)
                backend.plan = FaultPlan(at=backend.op_count + 1)
                store.add(u("post"), u("p1"), Literal(3), graph=G1)
        assert snap(store) == pre

    def test_version_is_monotonic_across_failures(self):
        store, backend = faulted_store()
        seed_store(store)
        versions = [store.commit_version]
        for attempt in range(3):
            backend.plan = FaultPlan(at=backend.op_count + 2)
            with pytest.raises(InjectedFault):
                with store.write_batch():
                    batch_workload(store)
            versions.append(store.commit_version)
        with store.write_batch():
            store.add(u("ok"), u("p1"), Literal("done"), graph=G1)
        versions.append(store.commit_version)
        assert versions == sorted(versions)
        assert versions[-1] == versions[0] + 1  # failed batches consumed none


# ---------------------------------------------------------------------------
# Hypothesis: random workloads, random fault points
# ---------------------------------------------------------------------------
SUBJECTS = [u(f"hs{i}") for i in range(4)]
PREDICATES = [u(f"hp{i}") for i in range(3)]
GRAPHS = [DEFAULT_GRAPH, G1, G2]

op_strategy = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(GRAPHS),
    ),
    st.tuples(
        st.just("remove"),
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(GRAPHS),
    ),
    st.tuples(
        st.just("annotate"),
        st.sampled_from(SUBJECTS),
        st.sampled_from(PREDICATES),
        st.integers(min_value=0, max_value=5),
        st.sampled_from(GRAPHS),
    ),
    st.tuples(st.just("remove_graph"), st.sampled_from([G1, G2])),
    st.tuples(st.just("retract_nodes"), st.lists(st.sampled_from(SUBJECTS), max_size=2), st.sampled_from(GRAPHS)),
    st.tuples(
        st.just("replace_nodes"),
        st.lists(st.sampled_from(SUBJECTS), max_size=2),
        st.lists(
            st.tuples(st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.integers(min_value=0, max_value=5)),
            max_size=4,
        ),
        st.sampled_from(GRAPHS),
    ),
)


def apply_ops(store: QuadStore, ops) -> None:
    for op in ops:
        if op[0] == "add":
            store.add(op[1], op[2], Literal(op[3]), graph=op[4])
        elif op[0] == "remove":
            store.remove(op[1], op[2], Literal(op[3]), graph=op[4])
        elif op[0] == "annotate":
            store.annotate(op[1], op[2], Literal(op[3]), u("score"), Literal(0.5), graph=op[4])
        elif op[0] == "remove_graph":
            store.remove_graph(op[1])
        elif op[0] == "retract_nodes":
            store.retract_nodes(op[1], graph=op[2])
        elif op[0] == "replace_nodes":
            store.replace_nodes(op[1], [(s, p, Literal(value)) for s, p, value in op[2]], graph=op[3])


class TestHypothesisRollback:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_fault_point_rolls_back_and_retries_clean(self, data):
        ops = data.draw(st.lists(op_strategy, min_size=1, max_size=12))

        clean, clean_backend = faulted_store()
        seed_store(clean)
        baseline = clean_backend.op_count
        with clean.write_batch():
            apply_ops(clean, ops)
        total = clean_backend.op_count - baseline  # >= 1: commit always ticks

        point = data.draw(st.integers(min_value=1, max_value=total))
        store, backend = faulted_store()
        seed_store(store)
        pre, pre_version = snap(store), store.commit_version
        backend.plan = FaultPlan(at=backend.op_count + point)
        with pytest.raises(InjectedFault):
            with store.write_batch():
                apply_ops(store, ops)
        assert snap(store) == pre
        assert store.commit_version == pre_version
        with store.write_batch():
            apply_ops(store, ops)
        assert snap(store) == snap(clean)
        assert store.commit_version == pre_version + 1


# ---------------------------------------------------------------------------
# Sqlite: transactional commits, crash recovery
# ---------------------------------------------------------------------------
class TestSqliteCrashSafety:
    def test_raise_sweep_rolls_back_memory_and_disk(self, tmp_path):
        total = count_batch_points(tmp_path / "count.sqlite")
        for point in range(1, total + 1, 2):
            path = tmp_path / f"raise_{point}.sqlite"
            store, backend = faulted_store(path)
            seed_store(store)
            pre, pre_version = snap(store), store.commit_version
            backend.plan = FaultPlan(at=backend.op_count + point)
            with pytest.raises(InjectedFault):
                with store.write_batch():
                    batch_workload(store)
            assert snap(store) == pre
            assert store.commit_version == pre_version
            store.close()
            reopened = QuadStore(backend=SqliteBackend(path))
            assert snap(reopened) == pre
            assert reopened.commit_version == pre_version
            reopened.close()

    def test_crash_sweep_recovers_to_previous_commit_on_reopen(self, tmp_path):
        total = count_batch_points(tmp_path / "count.sqlite")
        for point in range(1, total + 1, 2):
            path = tmp_path / f"crash_{point}.sqlite"
            store, backend = faulted_store(path)
            seed_store(store)
            pre, pre_version = snap(store), store.commit_version
            backend.plan = FaultPlan(at=backend.op_count + point, kind="crash")
            with pytest.raises(InjectedCrash):
                with store.write_batch():
                    batch_workload(store)
            assert backend.fired is not None
            # The process "died": reopen the durable path from scratch.
            reopened = QuadStore(backend=SqliteBackend(path))
            assert snap(reopened) == pre, f"torn state after crash point {point}"
            assert reopened.commit_version == pre_version
            assert reopened.recovery["commit_version"] == pre_version
            # The survivor keeps working: the lost batch replays cleanly.
            with reopened.write_batch():
                batch_workload(reopened)
            assert reopened.commit_version == pre_version + 1
            reopened.close()

    def test_kill_mid_flush_recovers_via_journal(self, tmp_path):
        """Sever the connection with batch rows already written but not
        committed: sqlite's journal must roll the torn flush back."""
        path = tmp_path / "midflush.sqlite"
        store = QuadStore(backend=SqliteBackend(path))
        seed_store(store)
        pre, pre_version = snap(store), store.commit_version
        backend = store.backend

        backend.begin_batch()
        store._in_batch = True  # emulate an open store batch for realism
        triple = tuple(map(backend.dictionary.encode, (u("torn"), u("p1"), Literal("row"))))
        backend.ensure_index(G1).add(triple)
        backend.quads_added(G1, [triple])
        backend._flush_rows()  # rows now sit in the open, uncommitted txn
        backend.crash()  # kill -9: no COMMIT ever runs

        reopened = QuadStore(backend=SqliteBackend(path))
        assert snap(reopened) == pre
        assert reopened.commit_version == pre_version
        recovery = reopened.recovery
        assert recovery["commit_version"] == pre_version
        assert recovery["discarded_shards"] == []
        reopened.close()

    def test_recovery_discards_torn_shard_catalog_rows(self, tmp_path):
        """A catalog row pointing at a missing shard table (a torn partial
        commit from an older journal mode) is discarded on open."""
        path = tmp_path / "torn.sqlite"
        store = QuadStore(backend=SqliteBackend(path))
        seed_store(store)
        pre = snap(store)
        store.close()

        connection = sqlite3.connect(path)
        connection.execute(
            "INSERT INTO graphs (id, name) VALUES (999, 'http://example.org/ghost')"
        )
        connection.execute("CREATE TABLE quads_777 (s, p, o)")  # orphan table
        connection.commit()
        connection.close()

        reopened = QuadStore(backend=SqliteBackend(path))
        recovery = reopened.recovery
        assert "http://example.org/ghost" in recovery["discarded_shards"]
        assert "quads_777" in recovery["dropped_orphan_tables"]
        assert snap(reopened) == pre
        reopened.close()

    def test_rolled_back_drop_and_recreate_keeps_an_unloaded_graph(self, tmp_path):
        """The batch's new index goes with the rollback even though the graph
        existed before it, so the next read loads the shard's rows."""
        path = tmp_path / "recreate.sqlite"
        store = QuadStore(backend=SqliteBackend(path))
        seed_store(store)
        pre = snap(store)
        store.close()
        reopened = QuadStore(backend=SqliteBackend(path))  # nothing resident
        with pytest.raises(RuntimeError, match="abort"):
            with reopened.write_batch():
                reopened.remove_graph(G2)
                reopened.add(u("n1"), u("p1"), Literal("new"), graph=G2)
                raise RuntimeError("abort")
        assert snap(reopened) == pre
        reopened.close()

    def test_commit_version_marker_survives_reopen(self, tmp_path):
        path = tmp_path / "marker.sqlite"
        store = QuadStore(backend=SqliteBackend(path))
        for round_index in range(3):
            with store.write_batch():
                store.add(u(f"r{round_index}"), u("p1"), Literal(round_index), graph=G1)
        assert store.commit_version == 3
        store.close()
        reopened = QuadStore(backend=SqliteBackend(path))
        assert reopened.commit_version == 3  # resumes, not resets
        reopened.close()



# ---------------------------------------------------------------------------
# The wrapper defines the fault points and forwards everything else
# ---------------------------------------------------------------------------
class TestFaultWrapper:
    @pytest.mark.parametrize("backend", ["faulted-memory", "faulted-sqlite"])
    def test_faulted_batch_workload_has_nine_fault_points(self, tmp_path, backend):
        # 5 rows added, 2 removed, 1 graph drop, 1 commit.
        path = tmp_path / "count.sqlite" if backend == "faulted-sqlite" else None
        assert count_batch_points(path) == 9

    def test_faulted_sqlite_reopen_reports_what_its_backend_reports(self, tmp_path):
        """Change inspection and shard files reach through the wrapper: a
        reopened file's graphs are all changed at its durable version."""
        path = tmp_path / "two.sqlite"
        store = QuadStore(backend=SqliteBackend(path))
        store.add(u("s1"), u("p1"), Literal(1), graph=G1)
        store.add(u("s2"), u("p1"), Literal(2), graph=G2)
        store.close()
        inner = SqliteBackend(path)
        plain, faulted = QuadStore(backend=inner), QuadStore(backend=FaultInjectingBackend(inner))
        assert plain.graphs_changed_since(0) == [G1, G2]
        assert faulted.graphs_changed_since(0) == plain.graphs_changed_since(0)
        assert faulted.graph_change_versions() == plain.graph_change_versions() == {G1: 2, G2: 2}
        assert faulted.backend.shard_files() == plain.backend.shard_files()
        assert len(plain.backend.shard_files()) == 2
        inner.close()


# ---------------------------------------------------------------------------
# Bulk writes: one hook call per batch, one fault point per row
# ---------------------------------------------------------------------------
BULK_ROWS = [(u(f"b{i}"), u("p1"), u(f"b{i + 1}")) for i in range(6)]


def bulk_add(store: QuadStore) -> None:
    store.add_many(BULK_ROWS, G1)


def bulk_retract(store: QuadStore) -> None:
    # s1 is a subject in G1 twice over; s2's edge carries an annotation.
    store.retract_nodes([u("s1"), u("s2")], G1)
    store.retract_nodes([u("s2")], G2)


class TestBulkWriteFaults:
    """A fault inside ``add_many`` / ``retract_nodes`` lands mid-batch: the
    backend has taken the rows ahead of the firing one, and the store ends
    byte-identical to never having seen the batch."""

    def test_batch_hooks_tick_once_per_row(self):
        store, backend = faulted_store()
        seed_store(store)
        start = backend.op_count
        with store.write_batch():
            bulk_add(store)
        assert backend.op_count - start == len(BULK_ROWS) + 1  # rows + commit
        start = backend.op_count
        with store.write_batch():
            bulk_retract(store)
        assert backend.op_count - start == 2 + 3 + 1  # G1 rows; G2 edges + annotation; commit

    def test_inner_backend_takes_the_rows_ahead_of_the_fault(self):
        taken = []

        class Recording(QuadStoreBackend):
            def quads_added(self, graph, rows):
                taken.append(list(rows))

        store = QuadStore(backend=FaultInjectingBackend(Recording(), FaultPlan(at=4)))
        with pytest.raises(InjectedFault):
            with store.write_batch():
                store.add_many(BULK_ROWS, G1)
        assert [len(rows) for rows in taken] == [3]
        assert snap(store) == ""

    @pytest.mark.parametrize("kind, error", [("raise", InjectedFault), ("crash", InjectedCrash)])
    @pytest.mark.parametrize("workload, rows", [(bulk_add, 6), (bulk_retract, 5)])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_fault_inside_a_bulk_write_leaves_no_trace(
        self, tmp_path, kind, error, workload, rows, position
    ):
        point = {"first": 1, "middle": rows // 2, "last": rows}[position]
        path = tmp_path / "bulk.sqlite"
        store, backend = faulted_store(path)
        seed_store(store)
        pre, pre_version = snap(store), store.commit_version
        pre_terms = store.dictionary.export_rows(1)
        backend.plan = FaultPlan(at=backend.op_count + point, kind=kind)
        with pytest.raises(error):
            with store.write_batch():
                workload(store)
        assert backend.fired == (
            "quad_added" if workload is bulk_add else "quad_removed",
            backend.op_count,
        )
        if kind == "raise":
            assert snap(store) == pre
            assert store.commit_version == pre_version
            assert store.dictionary.export_rows(1) == pre_terms
            store.close()
        reopened = QuadStore(backend=SqliteBackend(path))
        assert snap(reopened) == pre
        assert reopened.commit_version == pre_version
        assert reopened.dictionary.export_rows(1) == pre_terms
        # The lost batch replays cleanly on the survivor.
        with reopened.write_batch():
            workload(reopened)
        assert reopened.commit_version == pre_version + 1
        reopened.close()


# ---------------------------------------------------------------------------
# Sqlite: transient lock retry (bounded backoff)
# ---------------------------------------------------------------------------
class _FlakyConnection:
    """Proxy that fails the first ``failures`` execute calls as locked."""

    def __init__(self, inner, failures: int, message: str = "database is locked"):
        self._inner = inner
        self.failures = failures
        self.message = message
        self.attempts = 0

    def execute(self, *args, **kwargs):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise sqlite3.OperationalError(self.message)
        return self._inner.execute(*args, **kwargs)

    def executemany(self, *args, **kwargs):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise sqlite3.OperationalError(self.message)
        return self._inner.executemany(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSqliteLockRetry:
    def test_locked_execute_is_retried_until_it_succeeds(self, tmp_path):
        backend = SqliteBackend(tmp_path / "lock.sqlite")
        backend.lock_retry_delay = 0.001
        flaky = _FlakyConnection(backend._connection, failures=2)
        backend._connection = flaky
        cursor = backend._execute_retry("SELECT 1")
        assert cursor.fetchone() == (1,)
        assert flaky.attempts == 3
        backend._connection = flaky._inner
        backend.close()

    def test_retries_are_bounded(self, tmp_path):
        backend = SqliteBackend(tmp_path / "lock.sqlite")
        backend.lock_retry_delay = 0.001
        backend.lock_retries = 3
        flaky = _FlakyConnection(backend._connection, failures=99)
        backend._connection = flaky
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            backend._execute_retry("SELECT 1")
        assert flaky.attempts == backend.lock_retries
        backend._connection = flaky._inner
        backend.close()

    def test_non_lock_errors_are_not_retried(self, tmp_path):
        backend = SqliteBackend(tmp_path / "lock.sqlite")
        flaky = _FlakyConnection(
            backend._connection, failures=99, message="no such table: nope"
        )
        backend._connection = flaky
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            backend._execute_retry("SELECT 1")
        assert flaky.attempts == 1
        backend._connection = flaky._inner
        backend.close()

    def test_writer_waits_out_a_real_cross_connection_lock(self, tmp_path):
        path = tmp_path / "contended.sqlite"
        backend = SqliteBackend(path)
        backend.lock_retry_delay = 0.01
        backend.lock_retries = 20
        store = QuadStore(backend=backend)

        holder = sqlite3.connect(path, check_same_thread=False)
        holder.execute("BEGIN IMMEDIATE")

        def release_soon():
            time.sleep(0.08)
            holder.commit()
            holder.close()

        thread = threading.Thread(target=release_soon)
        thread.start()
        with store.write_batch():  # BEGIN IMMEDIATE must wait out the holder
            store.add(u("contended"), u("p1"), Literal(1), graph=G1)
        thread.join()
        assert store.contains(u("contended"), u("p1"), Literal(1), graph=G1)
        store.close()


# ---------------------------------------------------------------------------
# Embeddings ride the same transaction
# ---------------------------------------------------------------------------
class TestEmbeddingTransactions:
    def test_embedding_writes_roll_back_with_the_graph(self):
        storage = KGLiDSStorage()
        storage.embeddings.put("column", "keep", np.ones(4))
        version = storage.embeddings.version
        with pytest.raises(RuntimeError, match="boom"):
            with storage.transaction():
                storage.graph.add(u("s"), u("p"), Literal(1), graph=G1)
                storage.embeddings.put("column", "new", np.zeros(4))
                storage.embeddings.put("column", "keep", np.full(4, 9.0))
                storage.embeddings.remove("column", "keep")
                raise RuntimeError("boom")
        assert storage.embeddings.get("column", "new") is None
        np.testing.assert_array_equal(storage.embeddings.get("column", "keep"), np.ones(4))
        assert storage.embeddings.version == version
        assert not storage.graph.contains(u("s"), u("p"), Literal(1), graph=G1)
        # ANN search agrees with the rolled-back vectors.
        results = storage.embeddings.search("column", np.ones(4), k=5)
        assert [key for key, _ in results] == ["keep"]

    def test_embedding_commit_keeps_writes_and_version(self):
        storage = KGLiDSStorage()
        before = storage.embeddings.version
        with storage.transaction():
            storage.embeddings.put("column", "kept", np.ones(3))
        assert storage.embeddings.get("column", "kept") is not None
        assert storage.embeddings.version > before


# ---------------------------------------------------------------------------
# Governor-level sweeps: add / refresh / retract / pipelines
# ---------------------------------------------------------------------------
def faulted_governor(path=None):
    store, backend = faulted_store(path)
    return KGGovernor(storage=KGLiDSStorage(graph=store)), backend


def strided(total: int, samples: int = 8):
    """A spread of fault points across [1, total], always including the
    first, last (the commit boundary) and second-to-last points."""
    stride = max(1, total // samples)
    points = set(range(1, total + 1, stride))
    points.update({1, max(1, total - 1), total})
    return sorted(points)


def governor_state(governor: KGGovernor):
    return (
        snap(governor.storage.graph),
        embed_state(governor.storage),
        sorted(governor._profiles_by_key),
        dict(governor._fingerprints_by_key),
        sorted(governor._abstractions_by_id),
    )


def sweep_governor_mutation(prepare, mutate, verify_scratch, make=faulted_governor):
    """Drive ``mutate`` once per strided fault point over fresh governors.

    ``prepare(governor)`` builds committed pre-state; ``mutate(governor)``
    is the faulted operation; ``verify_scratch()`` returns the expected
    post-state of a successful retry (a scratch governor that never failed);
    ``make()`` opens a fresh faulted governor and its backend.
    """
    probe, probe_backend = make()
    prepare(probe)
    baseline = probe_backend.op_count
    mutate(probe)
    total = probe_backend.op_count - baseline
    assert total >= 3

    expected_after_retry = verify_scratch()
    for point in strided(total):
        governor, backend = make()
        prepare(governor)
        pre = governor_state(governor)
        backend.plan = FaultPlan(at=backend.op_count + point)
        with pytest.raises(InjectedFault):
            mutate(governor)
        assert governor_state(governor) == pre, f"fault point {point} left residue"
        # Disarmed, the same mutation must land exactly like a clean run.
        mutate(governor)
        assert (snap(governor.storage.graph), embed_state(governor.storage)) == (
            expected_after_retry
        ), f"retry after fault point {point} diverged"
        governor.close()
    probe.close()


def reshaped_table_0() -> Table:
    """:func:`make_lake`'s ``table_0`` with ``quantity`` dropped and a new
    ``price`` column.  Refreshing to it keeps the amount and region rows,
    deletes quantity's, inserts price's and swaps the unionable scores."""
    original = next(table for table in make_lake().tables() if table.name == "table_0")
    columns = {column.name: list(column.values) for column in original.columns if column.name != "quantity"}
    columns["price"] = [round(value * 1.5, 2) for value in columns["amount"]]
    return Table.from_dict("table_0", columns)


def one_shot(lake: DataLake):
    """Graph and embeddings of a scratch governor that governs ``lake`` once."""
    governor, _ = faulted_governor()
    governor.add_data_lake(lake)
    return snap(governor.storage.graph), embed_state(governor.storage)


def reshaped_lake() -> DataLake:
    lake = DataLake("txn")
    for table in make_lake().tables():
        lake.add_table(table.dataset, reshaped_table_0() if table.name == "table_0" else table)
    return lake


class TestGovernorFaultSweeps:
    def test_add_data_lake_is_all_or_nothing(self):
        def scratch():
            governor, _ = faulted_governor()
            governor.add_data_lake(make_lake())
            return snap(governor.storage.graph), embed_state(governor.storage)

        sweep_governor_mutation(
            prepare=lambda governor: None,
            mutate=lambda governor: governor.add_data_lake(make_lake()),
            verify_scratch=scratch,
        )

    @pytest.mark.parametrize("durable", [False, True], ids=["faulted-memory", "faulted-sqlite"])
    def test_refresh_table_is_one_atomic_commit(self, durable, tmp_path):
        """Every fault point of a refresh whose diff keeps, deletes and
        inserts rows: the governor is left as it was, and a retry lands on a
        scratch govern of the reshaped lake."""
        paths = (tmp_path / f"refresh_{number}.sqlite" for number in itertools.count())
        sweep_governor_mutation(
            prepare=lambda governor: governor.add_data_lake(make_lake()),
            mutate=lambda governor: governor.refresh_table(reshaped_table_0(), dataset_name="ds0"),
            verify_scratch=lambda: one_shot(reshaped_lake()),
            make=(lambda: faulted_governor(next(paths))) if durable else faulted_governor,
        )

    def test_crashed_refresh_recovers_to_the_previous_commit(self, tmp_path):
        """A process killed at any point of that refresh reopens at the
        commit before it, and the restarted governor's retry lands on a
        scratch govern of the reshaped lake."""
        probe, probe_backend = faulted_governor(tmp_path / "probe.sqlite")
        probe.add_data_lake(make_lake())
        baseline = probe_backend.op_count
        probe.refresh_table(reshaped_table_0(), dataset_name="ds0")
        total = probe_backend.op_count - baseline
        probe.close()
        expected = one_shot(reshaped_lake())
        for point in strided(total):
            path = tmp_path / f"crash_{point}.sqlite"
            governor, backend = faulted_governor(path)
            governor.add_data_lake(make_lake())
            # Profiles and embeddings as of the last commit, for the restart.
            saved = governor.save(tmp_path / f"saved_{point}")
            pre, pre_version = snap(governor.storage.graph), governor.storage.graph.commit_version
            backend.plan = FaultPlan(at=backend.op_count + point, kind="crash")
            with pytest.raises(InjectedCrash):
                governor.refresh_table(reshaped_table_0(), dataset_name="ds0")
            assert backend.fired is not None
            restarted = KGGovernor.open(saved, graph=QuadStore(backend=SqliteBackend(path)))
            graph = restarted.storage.graph
            assert snap(graph) == pre, f"torn state after crash point {point}"
            assert graph.commit_version == pre_version
            restarted.refresh_table(reshaped_table_0(), dataset_name="ds0")
            assert (snap(graph), embed_state(restarted.storage)) == expected, (
                f"retry after crash point {point} diverged"
            )
            restarted.close()

    def test_retract_table_is_all_or_nothing(self):
        def prepare(governor):
            governor.add_data_lake(make_lake())

        def scratch():
            governor, _ = faulted_governor()
            prepare(governor)
            governor.retract_table("ds0", "table_0")
            return snap(governor.storage.graph), embed_state(governor.storage)

        sweep_governor_mutation(
            prepare=prepare,
            mutate=lambda governor: governor.retract_table("ds0", "table_0"),
            verify_scratch=scratch,
        )

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "sqlite"])
    def test_last_table_of_a_dataset_takes_the_dataset_node(self, durable, tmp_path):
        """A drifted lake equals a one-shot govern: no emptied dataset node stays."""

        def governed(name, lake):
            store, backend = faulted_store(tmp_path / name if durable else None)
            governor = KGGovernor(storage=KGLiDSStorage(graph=store))
            governor.add_data_lake(lake)
            return governor, backend

        lake = make_lake(num_tables=2)  # ds0/table_0 and ds1/table_1
        fresh, _ = governed("fresh.sqlite", make_lake(num_tables=1))  # ds0/table_0 alone
        expected = snap(fresh.storage.graph)
        probe, probe_backend = governed("probe.sqlite", lake)
        baseline = probe_backend.op_count
        assert probe.retract_table("ds1", "table_1")
        batch_points = probe_backend.op_count - baseline
        assert snap(probe.storage.graph) == expected

        # A fault at the commit boundary, after the node's triples were
        # removed, undoes the whole retraction — the dataset node included.
        governor, backend = governed("drifted.sqlite", lake)
        pre = governor_state(governor)
        backend.plan = FaultPlan(at=backend.op_count + batch_points)
        with pytest.raises(InjectedFault):
            governor.retract_table("ds1", "table_1")
        assert governor_state(governor) == pre
        assert governor.retract_table("ds1", "table_1")
        assert snap(governor.storage.graph) == expected
        for each in (fresh, probe, governor):
            each.close()

    def test_add_pipelines_is_all_or_nothing(self, example_pipeline_source):
        scripts = [
            PipelineScript(
                "txn_p1", example_pipeline_source, dataset_name="titanic", votes=3
            )
        ]

        def prepare(governor):
            governor.add_data_lake(make_lake())

        def scratch():
            governor, _ = faulted_governor()
            prepare(governor)
            governor.add_pipelines(scripts)
            return snap(governor.storage.graph), embed_state(governor.storage)

        sweep_governor_mutation(
            prepare=prepare,
            mutate=lambda governor: governor.add_pipelines(scripts),
            verify_scratch=scratch,
        )

    def test_failed_refresh_preserves_profile_lookup(self):
        governor, backend = faulted_governor()
        governor.add_data_lake(make_lake())
        profile_before = governor.table_profile("ds0", "table_0")
        assert profile_before is not None
        changed = Table.from_dict("table_0", {"amount": [1.0, 2.0]})
        backend.plan = FaultPlan(at=backend.op_count + 5)
        with pytest.raises(InjectedFault):
            governor.refresh_table(changed, dataset_name="ds0")
        assert governor.table_profile("ds0", "table_0") is profile_before


# ---------------------------------------------------------------------------
# Service: retry, quarantine, fail-not-hang
# ---------------------------------------------------------------------------
class TestServiceResilience:
    def test_transient_errors_are_retried_until_success(self):
        service = GovernorService(max_batch_tables=4)
        real = service.governor.add_data_lake
        try:
            calls = {"count": 0}

            def flaky(lake, **kwargs):
                calls["count"] += 1
                if calls["count"] <= 2:
                    raise TransientError("database is locked (simulated)")
                return real(lake, **kwargs)

            service.governor.add_data_lake = flaky
            service.retry_backoff = 0.001
            ticket = service.submit_lake(make_lake(2))
            report = ticket.result(timeout=120)
            assert report.num_tables_profiled == 2
            assert calls["count"] == 3
            assert service.stats["retries"] == 2
            assert service.stats["failed"] == 0
        finally:
            service.governor.__dict__.pop("add_data_lake", None)
            service.close()

    def test_exhausted_transient_retries_fail_the_ticket(self):
        service = GovernorService(max_batch_tables=4)
        try:
            service.retry_backoff = 0.001
            service.max_transient_retries = 2
            boom = TransientError("always locked")

            def always_locked(lake, **kwargs):
                raise boom

            service.governor.add_data_lake = always_locked
            ticket = service.submit_lake(make_lake(2))
            with pytest.raises(TransientError):
                ticket.result(timeout=120)
            assert service.stats["retries"] == 2  # bounded: not infinite
        finally:
            service.governor.__dict__.pop("add_data_lake", None)
            service.close()

    def test_repeat_offenders_are_quarantined_then_fast_failed(self):
        service = GovernorService(max_batch_tables=4)
        try:
            service.retry_backoff = 0.001
            service.quarantine_after = 2
            boom = ValueError("poison table")

            def poisoned(lake, **kwargs):
                raise boom

            service.governor.add_data_lake = poisoned
            table = Table.from_dict("bad", {"x": [1, 2, 3]})

            for _ in range(service.quarantine_after):
                ticket = service.submit_table(table, "dsq")
                assert ticket.exception(timeout=120) is boom
            assert ("table", "dsq", "bad") in service.quarantined

            # Quarantined: fails fast with PoisonTableError, the governor
            # is not even called.
            service.governor.__dict__.pop("add_data_lake", None)
            calls = {"count": 0}
            real = service.governor.add_data_lake

            def counting(lake, **kwargs):
                calls["count"] += 1
                return real(lake, **kwargs)

            service.governor.add_data_lake = counting
            ticket = service.submit_table(table, "dsq")
            error = ticket.exception(timeout=120)
            assert isinstance(error, PoisonTableError)
            assert error.key == ("table", "dsq", "bad")
            assert error.cause is boom
            assert calls["count"] == 0
            assert service.stats["quarantined"] >= 1

            # Lifting the quarantine lets the (fixed) table through.
            service.clear_quarantine(("table", "dsq", "bad"))
            assert service.quarantined == []
            ticket = service.submit_table(table, "dsq")
            report = ticket.result(timeout=120)
            assert report.num_tables_profiled == 1
            assert calls["count"] == 1
        finally:
            service.governor.__dict__.pop("add_data_lake", None)
            service.close()

    def test_quarantine_reasons_expose_last_error_per_key(self):
        service = GovernorService(max_batch_tables=4)
        try:
            service.retry_backoff = 0.001
            service.quarantine_after = 2
            boom = ValueError("disk ate the table")

            def poisoned(lake, **kwargs):
                raise boom

            service.governor.add_data_lake = poisoned
            table = Table.from_dict("bad", {"x": [1, 2]})
            for _ in range(service.quarantine_after):
                service.submit_table(table, "dsr").exception(timeout=120)

            reasons = service.quarantine_reasons
            assert reasons == {("table", "dsr", "bad"): boom}
            # The property hands back a snapshot, not the live ledger.
            reasons.clear()
            assert ("table", "dsr", "bad") in service.quarantine_reasons
        finally:
            service.governor.__dict__.pop("add_data_lake", None)
            service.close()

    def test_external_quarantine_fast_fails_and_clears(self):
        # Callers (the lake crawler) can quarantine a key they failed to
        # even load, without the governor ever seeing the table.
        service = GovernorService(max_batch_tables=4)
        try:
            cause = OSError("short read")
            service.quarantine(("table", "dse", "hurt"), cause)
            assert service.quarantine_reasons[("table", "dse", "hurt")] is cause

            table = Table.from_dict("hurt", {"x": [1.0]})
            error = service.submit_table(table, "dse").exception(timeout=120)
            assert isinstance(error, PoisonTableError)
            assert error.cause is cause

            service.clear_quarantine(("table", "dse", "hurt"))
            report = service.submit_table(table, "dse").result(timeout=120)
            assert report.num_tables_profiled == 1
        finally:
            service.close()

    def test_clear_all_quarantines_resets_failure_counters(self):
        # clear_quarantine(None) lifts every key AND zeroes the strike
        # counters: a cleared table gets a full fresh allowance before it
        # can be quarantined again.
        service = GovernorService(max_batch_tables=4)
        try:
            service.retry_backoff = 0.001
            service.quarantine_after = 2
            boom = ValueError("poison")

            def poisoned(lake, **kwargs):
                raise boom

            service.governor.add_data_lake = poisoned
            table_a = Table.from_dict("a", {"x": [1]})
            table_b = Table.from_dict("b", {"y": [2]})
            for table in (table_a, table_b):
                for _ in range(service.quarantine_after):
                    service.submit_table(table, "dsc").exception(timeout=120)
            assert len(service.quarantined) == 2

            service.clear_quarantine()
            assert service.quarantined == []
            assert service.quarantine_reasons == {}

            # Still broken: one more failure must NOT re-quarantine —
            # the counter restarted from zero.
            service.submit_table(table_a, "dsc").exception(timeout=120)
            assert service.quarantined == []
            # The second strike after the reset does.
            service.submit_table(table_a, "dsc").exception(timeout=120)
            assert ("table", "dsc", "a") in service.quarantined

            # Fixed tables resubmit cleanly after a clear.
            service.governor.__dict__.pop("add_data_lake", None)
            service.clear_quarantine(("table", "dsc", "a"))
            report = service.submit_table(table_a, "dsc").result(timeout=120)
            assert report.num_tables_profiled == 1
        finally:
            service.governor.__dict__.pop("add_data_lake", None)
            service.close()

    def test_one_poison_table_does_not_quarantine_batch_mates(self):
        service = GovernorService(max_batch_tables=8)
        try:
            service.retry_backoff = 0.001
            real = service.governor.add_data_lake

            def poison_only_bad(lake, **kwargs):
                if any(table.name == "bad" for table in lake.tables()):
                    raise ValueError("poison")
                return real(lake, **kwargs)

            service.governor.add_data_lake = poison_only_bad
            service.pause()  # pile the submissions into one coalesced batch
            good_ticket = service.submit_table(Table.from_dict("good", {"x": [1, 2]}), "dsb")
            bad_ticket = service.submit_table(Table.from_dict("bad", {"y": [3, 4]}), "dsb")
            service.resume()
            # The coalesced batch fails, splits, and each table settles alone.
            assert good_ticket.result(timeout=120).num_tables_profiled == 1
            assert isinstance(bad_ticket.exception(timeout=120), ValueError)
            assert service.quarantined == []  # one failure < quarantine_after
        finally:
            service.governor.__dict__.pop("add_data_lake", None)
            service.close()

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_scheduler_fails_tickets_instead_of_hanging(self):
        service = GovernorService(max_batch_tables=4)
        try:

            def kill_scheduler(kind, batch):
                raise SystemExit("scheduler dies")

            service._execute = kill_scheduler
            service.pause()
            first = service.submit_table(Table.from_dict("t1", {"x": [1]}), "dsx")
            second = service.submit_table(Table.from_dict("t2", {"x": [2]}), "dsx")
            service.resume()
            # Both tickets fail (they ride the in-flight batch that killed
            # the scheduler; the safety net fails them) — neither hangs.
            assert first.wait(timeout=120)
            assert second.wait(timeout=120)
            assert isinstance(second.exception(), GovernanceError)
            # New submissions are refused outright.
            with pytest.raises(GovernanceError, match="scheduler"):
                service.submit_table(Table.from_dict("t3", {"x": [3]}), "dsx")
            # close() returns instead of waiting on a thread that will never
            # drain the queue.
            service.close(timeout=120)
            assert service.closed
        finally:
            if not service.closed:
                service.close()


# ---------------------------------------------------------------------------
# Idempotent shutdown
# ---------------------------------------------------------------------------
class TestIdempotentClose:
    def test_quad_store_double_close(self, tmp_path):
        for store in (
            QuadStore(),
            QuadStore(backend=SqliteBackend(tmp_path / "close.sqlite")),
        ):
            store.add(u("s"), u("p"), Literal(1), graph=G1)
            store.close()
            store.close()  # second close is a no-op, not an error

    def test_close_after_failed_batch(self, tmp_path):
        path = tmp_path / "failed.sqlite"
        store, backend = faulted_store(path)
        seed_store(store)
        backend.plan = FaultPlan(at=backend.op_count + 3)
        with pytest.raises(InjectedFault):
            with store.write_batch():
                batch_workload(store)
        store.close()
        store.close()
        reopened = QuadStore(backend=SqliteBackend(path))
        assert reopened.commit_version == 1
        reopened.close()

    def test_governor_double_close(self):
        governor = KGGovernor()
        governor.add_data_lake(make_lake(2))
        governor.close()
        governor.close()

    def test_client_double_close_and_quarantine_passthrough(self):
        service = GovernorService(max_batch_tables=4)
        client = LiDSClient(service)
        assert client.quarantined == []
        client.clear_quarantine()  # no-op, never raises
        with pytest.raises(RuntimeError, match="close the GovernorService"):
            client.close()  # service still live
        service.close()
        client.close()
        client.close()

    def test_plain_governor_client_quarantine_is_empty(self):
        client = LiDSClient(KGGovernor())
        assert client.quarantined == []
        client.clear_quarantine("anything")
        client.close()
        client.close()
