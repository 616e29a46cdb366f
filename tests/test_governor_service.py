"""The governor service: queued ingestion, read views, concurrent safety.

Pins the contracts of the service-API redesign:

* ``submit_*`` returns tickets that resolve with merged ``GovernorReport``s,
  and a lake governed through the service is byte-identical to synchronous
  governing;
* the scheduler coalesces adjacent table submissions into micro-batches and
  the bounded queue applies back-pressure;
* ``GovernorReport.merge`` / ``__add__`` compose associatively;
* the store's read/write gate: write batches are atomic for readers, read
  views nest, upgrades raise instead of deadlocking;
* sqlite backends survive cross-thread use (ingest on the scheduler thread,
  read on the main thread);
* a concurrent stress run — readers hammering discovery queries while a
  50-table lake streams in — sees no torn reads and ends byte-identical to
  the synchronous graph;
* ``LiDSClient`` fronts live services and saved directories (read-only).
"""

from __future__ import annotations

import queue
import sys
import threading
import time

import numpy as np
import pytest

from repro.interfaces import KGLiDS, LiDSClient
from repro.kg import GovernorService, KGGovernor
from repro.kg.governor import GovernorReport
from repro.kg.linker import LinkReport
from repro.kg.ontology import DATASET_GRAPH
from repro.rdf import Literal, QuadStore, URIRef
from repro.rdf.serialize import serialize_nquads
from repro.tabular import DataLake, Table


def make_lake(num_tables: int, rows: int = 8, seed: int = 3, name: str = "svc") -> DataLake:
    """A small lake with overlapping schemas so similarity edges appear."""
    lake = DataLake(name)
    rng = np.random.RandomState(seed)
    for index in range(num_tables):
        dataset = f"ds{index % 3}"
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


def snapshot(store: QuadStore) -> str:
    return serialize_nquads(store)


@pytest.fixture
def service():
    service = GovernorService(max_batch_tables=8)
    yield service
    service.close()


# ---------------------------------------------------------------------------
# Tickets + byte identity
# ---------------------------------------------------------------------------
class TestSubmission:
    def test_lake_via_service_is_byte_identical_to_sync(self, service):
        sync = KGGovernor()
        sync_report = sync.add_data_lake(make_lake(6))
        ticket = service.submit_lake(make_lake(6))
        report = ticket.result(timeout=120)
        assert ticket.status == "done" and ticket.done()
        assert report.num_tables_profiled == sync_report.num_tables_profiled
        assert report.num_similarity_edges == sync_report.num_similarity_edges
        assert snapshot(service.governor.storage.graph) == snapshot(sync.storage.graph)

    def test_per_table_submissions_match_sync_one_shot(self, service):
        sync = KGGovernor()
        sync.add_data_lake(make_lake(6))
        tickets = [
            service.submit_table(table, table.dataset)
            for table in make_lake(6).tables()
        ]
        reports = [ticket.result(timeout=120) for ticket in tickets]
        assert sum(r is reports[0] for r in reports) >= 1
        assert snapshot(service.governor.storage.graph) == snapshot(sync.storage.graph)

    def test_coalesced_tickets_share_one_merged_batch_report(self, service):
        service.pause()
        tickets = [
            service.submit_table(table, table.dataset)
            for table in make_lake(4).tables()
        ]
        service.resume()
        reports = [ticket.result(timeout=120) for ticket in tickets]
        # All four submissions landed in one micro-batch: one shared report
        # covering the whole batch.
        assert all(report is reports[0] for report in reports)
        assert reports[0].num_tables_profiled == 4
        assert service.stats["batches"] == 1
        assert service.stats["coalesced"] == 3

    def test_batch_cap_limits_coalescing(self):
        with GovernorService(max_batch_tables=2) as service:
            service.pause()
            tickets = [
                service.submit_table(table, table.dataset)
                for table in make_lake(5).tables()
            ]
            service.resume()
            for ticket in tickets:
                ticket.result(timeout=120)
            assert service.stats["batches"] >= 3

    def test_ticket_result_timeout(self, service):
        service.pause()
        ticket = service.submit_lake(make_lake(2))
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.05)
        assert not ticket.done()
        service.resume()
        assert ticket.result(timeout=120).num_tables_profiled == 2

    def test_back_pressure_bounded_queue(self):
        with GovernorService(maxsize=2) as service:
            service.pause()
            # The paused scheduler may already hold one popped submission, so
            # at most maxsize + 1 submissions are accepted before the bounded
            # queue pushes back on the producer.
            with pytest.raises(queue.Full):
                for _ in range(4):
                    service.submit_lake(make_lake(2), timeout=0.05)
            service.resume()
            service.drain()

    def test_failed_batch_fails_tickets_but_not_service(self, service, monkeypatch):
        boom = RuntimeError("profiling exploded")

        def explode(lake):
            raise boom

        monkeypatch.setattr(service.governor, "add_data_lake", explode)
        ticket = service.submit_lake(make_lake(2))
        with pytest.raises(RuntimeError, match="profiling exploded"):
            ticket.result(timeout=120)
        assert ticket.status == "failed"
        assert ticket.exception() is boom
        monkeypatch.undo()
        # The scheduler survived and keeps processing.
        assert service.submit_lake(make_lake(2)).result(timeout=120).num_tables_profiled == 2

    def test_refresh_and_retract_submissions(self, service):
        lake = make_lake(3)
        service.submit_lake(lake).result(timeout=120)
        target = lake.tables()[0]
        modified = target.copy()
        modified.column("amount").values[:] = [
            value + 1.0 for value in modified.column("amount").values
        ]
        refresh_report = service.submit_refresh(modified, target.dataset).result(timeout=120)
        assert refresh_report.refreshed_tables == [f"{target.dataset}/{target.name}"]
        retract_report = service.submit_retract(target.dataset, target.name).result(timeout=120)
        assert retract_report.retracted_tables == [f"{target.dataset}/{target.name}"]
        # Retracting an unknown table resolves with an empty report.
        assert service.submit_retract("nope", "nothing").result(timeout=120).retracted_tables == []

    def test_close_drains_pending_work(self):
        service = GovernorService()
        tickets = [service.submit_lake(make_lake(3))]
        service.close()
        assert tickets[0].done()
        assert service.closed
        with pytest.raises(RuntimeError):
            service.submit_lake(make_lake(1))
        # The governor returns to direct synchronous operation.
        assert service.governor._service is None
        report = service.governor.add_data_lake(make_lake(4))
        assert report.num_tables_profiled == 1  # 3 of 4 already governed


# ---------------------------------------------------------------------------
# Sync shims
# ---------------------------------------------------------------------------
class TestSyncShims:
    def test_governor_sync_methods_route_through_queue(self, service):
        before = service.stats["submitted"]
        report = service.governor.add_data_lake(make_lake(3))
        assert report.num_tables_profiled == 3
        assert service.stats["submitted"] == before + 1

    def test_shimmed_graph_matches_direct_graph(self, service):
        sync = KGGovernor()
        sync.add_data_lake(make_lake(5, seed=9))
        service.governor.add_data_lake(make_lake(5, seed=9))
        assert snapshot(service.governor.storage.graph) == snapshot(sync.storage.graph)

    def test_sync_call_inside_read_view_raises_instead_of_deadlocking(self, service):
        with service.governor.storage.graph.read_view():
            with pytest.raises(RuntimeError, match="read view"):
                service.governor.add_data_lake(make_lake(1))
            with pytest.raises(RuntimeError, match="read view"):
                service.submit_lake(make_lake(1))

    def test_awaiting_ticket_inside_read_view_raises(self, service):
        service.pause()
        ticket = service.submit_lake(make_lake(1))
        with service.governor.storage.graph.read_view():
            with pytest.raises(RuntimeError, match="read view"):
                ticket.result(timeout=5)
            with pytest.raises(RuntimeError, match="read view"):
                ticket.wait(timeout=5)
            with pytest.raises(RuntimeError, match="read view"):
                service.drain()
        service.resume()
        assert ticket.result(timeout=120).num_tables_profiled == 1
        # A resolved ticket no longer blocks, so awaiting it in a view is fine.
        with service.governor.storage.graph.read_view():
            assert ticket.result().num_tables_profiled == 1

    def test_retract_shim_returns_bool(self, service):
        lake = make_lake(2)
        service.submit_lake(lake).result(timeout=120)
        table = lake.tables()[0]
        assert service.governor.retract_table(table.dataset, table.name) is True
        assert service.governor.retract_table(table.dataset, table.name) is False


# ---------------------------------------------------------------------------
# GovernorReport.merge
# ---------------------------------------------------------------------------
class TestGovernorReportMerge:
    @staticmethod
    def _report(n: int) -> GovernorReport:
        return GovernorReport(
            num_tables_profiled=n,
            num_columns_profiled=2 * n,
            num_pipelines_abstracted=n,
            num_similarity_edges=3 * n,
            refreshed_tables=[f"refreshed_{n}"],
            retracted_tables=[f"retracted_{n}"],
            link_reports=[LinkReport(pipeline_id=f"p{n}")],
        )

    def test_merge_is_associative(self):
        a, b, c = self._report(1), self._report(2), self._report(3)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        assert left.num_tables_profiled == 6
        assert left.refreshed_tables == ["refreshed_1", "refreshed_2", "refreshed_3"]

    def test_merge_does_not_mutate_operands(self):
        a, b = self._report(1), self._report(2)
        merged = a + b
        assert a.num_tables_profiled == 1 and b.num_tables_profiled == 2
        assert a.refreshed_tables == ["refreshed_1"]
        merged.refreshed_tables.append("extra")
        assert "extra" not in a.refreshed_tables and "extra" not in b.refreshed_tables

    def test_empty_report_is_identity(self):
        a = self._report(4)
        assert GovernorReport().merge(a) == a == a.merge(GovernorReport())

    def test_sum_builds_on_radd(self):
        total = sum([self._report(1), self._report(2), self._report(3)])
        assert total.num_similarity_edges == 18
        assert total.link_reports[0].pipeline_id == "p1"


# ---------------------------------------------------------------------------
# The read/write gate
# ---------------------------------------------------------------------------
class TestReadWriteGate:
    def test_read_views_nest_and_report_version(self):
        store = QuadStore()
        with store.write_batch():
            store.add(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1))
        with store.read_view() as outer:
            with store.read_view() as inner:
                assert inner.version == outer.version == store.commit_version
            assert not outer.changed

    def test_commit_version_moves_per_batch_not_per_triple(self):
        store = QuadStore()
        base = store.commit_version
        with store.write_batch():
            for index in range(5):
                store.add(URIRef(f"http://x/s{index}"), URIRef("http://x/p"), Literal(index))
        assert store.commit_version == base + 1
        store.add(URIRef("http://x/solo"), URIRef("http://x/p"), Literal(9))
        assert store.commit_version == base + 2

    def test_write_batch_inside_read_view_raises(self):
        store = QuadStore()
        with store.read_view():
            with pytest.raises(RuntimeError, match="read view"):
                with store.write_batch():
                    pass

    def test_writer_may_open_read_views(self):
        store = QuadStore()
        with store.write_batch():
            store.add(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1))
            with store.read_view():
                assert store.num_triples() == 1

    def test_batches_are_atomic_for_concurrent_readers(self):
        """A reader never observes a strict subset of an open batch."""
        store = QuadStore()
        predicate = URIRef("http://x/p")
        batch_size = 50
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                with store.read_view():
                    count = sum(1 for _ in store.triples(None, predicate, None))
                if count % batch_size:
                    torn.append(count)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for batch in range(20):
            with store.write_batch():
                for index in range(batch_size):
                    store.add(
                        URIRef(f"http://x/s{batch}_{index}"),
                        predicate,
                        Literal(index),
                    )
                    if index == batch_size // 2:
                        time.sleep(0)  # encourage interleaving attempts
        stop.set()
        for thread in threads:
            thread.join()
        assert torn == []


# ---------------------------------------------------------------------------
# Sqlite thread affinity (regression)
# ---------------------------------------------------------------------------
class TestSqliteCrossThread:
    def test_ingest_on_scheduler_thread_read_on_main(self, tmp_path):
        """The seed backend bound its connection to the constructing thread.

        A governor service always writes from its scheduler thread while the
        store was opened on the main thread — without the shared-connection
        fix every flush raised ``sqlite3.ProgrammingError``.
        """
        from repro.kg.storage import KGLiDSStorage

        store = QuadStore.sqlite(tmp_path / "graph.sqlite3")
        governor = KGGovernor(storage=KGLiDSStorage(graph=store))
        with GovernorService(governor) as service:
            service.submit_lake(make_lake(4)).result(timeout=120)
            # Main-thread reads force lazy shard loads + flushes on the
            # connection the scheduler thread just wrote through.
            client = KGLiDS(governor)
            tables = client.query(
                "SELECT ?t WHERE { GRAPH <http://kglids.org/resource/data/graph/datasets>"
                " { ?t a kglids:Table . } }"
            )
            assert len(tables) == 4
        governor.close()

    def test_plain_store_cross_thread_write_then_read(self, tmp_path):
        store = QuadStore.sqlite(tmp_path / "g.sqlite3")
        errors = []

        def writer():
            try:
                with store.write_batch():
                    for index in range(100):
                        store.add(
                            URIRef(f"http://x/s{index}"),
                            URIRef("http://x/p"),
                            Literal(index),
                        )
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join()
        assert errors == []
        assert store.num_triples() == 100
        # And the reverse: read (triggering count + flush) from a thread.
        def reader():
            try:
                assert len(list(store.triples(None, URIRef("http://x/p"), None))) == 100
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join()
        assert errors == []
        store.close()

    def test_concurrent_first_touch_loads_each_shard_once(self, tmp_path):
        """Readers racing to first-touch dormant shards load each one once.

        ``get_index`` re-checks the resident map under the backend lock, so
        four threads asking for the same unloaded graph share one load and
        every reader sees the full shard.
        """
        path = tmp_path / "dormant.sqlite3"
        store = QuadStore.sqlite(path)
        predicate = URIRef("http://x/p")
        for graph_index in range(6):
            with store.write_batch():
                for index in range(20):
                    store.add(
                        URIRef(f"http://x/s{index}"),
                        predicate,
                        Literal(index),
                        graph=URIRef(f"http://x/g{graph_index}"),
                    )
        store.close()
        store = QuadStore.sqlite(path)
        errors = []
        start = threading.Barrier(4)

        def reader():
            try:
                start.wait(timeout=30)
                for _ in range(20):
                    for graph_index in range(6):
                        graph = URIRef(f"http://x/g{graph_index}")
                        count = sum(1 for _ in store.triples(graph=graph))
                        assert count == 20, (graph_index, count)
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often enough to race the loads
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.backend.shard_loads == 6
        store.close()


# ---------------------------------------------------------------------------
# Concurrent read/write stress
# ---------------------------------------------------------------------------
class TestConcurrentStress:
    def test_readers_stay_consistent_while_lake_streams_in(self):
        """Satellite: 50-table lake streamed in while readers hammer the API.

        Readers assert two invariants inside every read view: (a) queries
        never raise, (b) no torn reads — every table visible in the dataset
        graph has its full metadata applied (declared column count ==
        materialized column nodes), which cannot hold mid-batch because
        metadata for a batch's tables is written inside one commit batch.
        """
        num_tables = 50
        lake = make_lake(num_tables, rows=8, seed=21, name="stress")
        sync = KGGovernor()
        sync.add_data_lake(make_lake(num_tables, rows=8, seed=21, name="stress"))
        expected = snapshot(sync.storage.graph)

        service = GovernorService(max_batch_tables=4)
        client = LiDSClient(service)
        ingestion_done = threading.Event()
        failures = []
        observations = {"reads": 0, "tables_seen": 0}
        ontology = "http://kglids.org/ontology/"

        def reader(reader_id: int):
            try:
                while not ingestion_done.is_set():
                    with client.read_view():
                        declared = {
                            str(row["t"]): int(row["c"])
                            for row in client.storage.query(
                                "SELECT ?t ?c WHERE { GRAPH"
                                " <http://kglids.org/resource/data/graph/datasets> {"
                                " ?t a kglids:Table ."
                                f" ?t <{ontology}hasTotalColumns> ?c . }} }}"
                            ).rows
                        }
                        materialized = {}
                        for row in client.storage.query(
                            "SELECT ?t (COUNT(?col) AS ?n) WHERE { GRAPH"
                            " <http://kglids.org/resource/data/graph/datasets> {"
                            " ?col a kglids:Column ."
                            f" ?col <{ontology}isPartOf> ?t . }} }} GROUP BY ?t"
                        ).rows:
                            materialized[str(row["t"])] = int(row["n"])
                    if set(declared) != set(materialized):
                        raise AssertionError(
                            f"torn read: tables {set(declared) ^ set(materialized)}"
                        )
                    for table_node, declared_count in declared.items():
                        if materialized[table_node] != declared_count:
                            raise AssertionError(
                                f"torn read: {table_node} declares {declared_count}"
                                f" columns, sees {materialized[table_node]}"
                            )
                    observations["reads"] += 1
                    observations["tables_seen"] = max(
                        observations["tables_seen"], len(declared)
                    )
                    if reader_id == 0:
                        client.get_unionable_tables("ds0", "table_0")
            except BaseException as error:
                failures.append(error)

        readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for thread in readers:
            thread.start()
        try:
            tickets = [
                service.submit_table(table, table.dataset) for table in lake.tables()
            ]
            for ticket in tickets:
                ticket.result(timeout=300)
        finally:
            ingestion_done.set()
            for thread in readers:
                thread.join()
            service.close()
        assert failures == []
        assert observations["reads"] > 0
        assert snapshot(service.governor.storage.graph) == expected


# ---------------------------------------------------------------------------
# LiDSClient
# ---------------------------------------------------------------------------
class TestLiDSClient:
    def test_fronts_live_service_and_plain_governor(self, service):
        service.submit_lake(make_lake(4)).result(timeout=120)
        for client in (LiDSClient(service), LiDSClient(service.governor)):
            assert client.service is service
            assert not client.read_only
            assert client.statistics()["num_graphs"] >= 2
            assert len(client.search_keywords(["table_0"])) == 1

    def test_rejects_unknown_sources(self):
        with pytest.raises(TypeError):
            LiDSClient("not-a-governor")

    def test_open_saved_directory_read_only(self, tmp_path, service):
        service.submit_lake(make_lake(5)).result(timeout=120)
        reference = snapshot(service.governor.storage.graph)
        service.governor.save(tmp_path / "lake")
        client = LiDSClient.open(tmp_path / "lake")
        try:
            assert client.read_only and client.service is None
            assert snapshot(client.storage.graph) == reference
            unionable = client.get_unionable_tables("ds0", "table_0")
            assert len(unionable) > 0
            with pytest.raises(PermissionError):
                client.governor.add_data_lake(make_lake(1))
            with pytest.raises(PermissionError):
                client.governor.retract_table("ds0", "table_0")
            with pytest.raises(PermissionError):
                GovernorService(client.governor)
        finally:
            client.close()

    def test_one_governor_one_service(self, service):
        with pytest.raises(ValueError):
            GovernorService(service.governor)

    def test_close_rejected_while_service_live(self, service):
        client = LiDSClient(service)
        with pytest.raises(RuntimeError, match="GovernorService"):
            client.close()
        service.close()
        client.close()  # fine once the scheduler is gone
