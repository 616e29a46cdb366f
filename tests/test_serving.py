"""The serving tier: wire codec, writer server, replicas, remote client.

Pins the serving contracts:

* the protocol codec round-trips terms and tables byte-identically
  (``canonical_json`` equality is the currency of every identity check);
* a remote client's rows are byte-identical to the in-process client's,
  before and after the writer streams more tables;
* replica refresh pulls *deltas* (row ops) when the writer's op log can
  bridge, full dumps of only the changed graphs otherwise, and applies
  them atomically: concurrent readers never observe a torn snapshot;
* a replica's local strays (terms it interned between syncs) give way to
  the writer's rows, in its dictionary and in its file;
* a quoted triple crosses the wire only as its ``(id, s, p, o)`` part ids,
  never as a ``<< s p o >>`` spelling, on the log-bridged and full-dump
  paths alike, and the replica persists exactly the writer's part rows;
* ``LiDSClient.reopen`` re-opens a shipped snapshot in place — same
  interned dictionary, only changed ``GraphIndex``es invalidated;
* ``RemoteLiDSClient`` retries with backoff through a flapping server and
  surfaces ``TransientError`` once the endpoint is genuinely down;
* staleness is reported in commit versions (client ``stats()``, service
  ``stats`` and the replica's ``replication_lag``).
"""

from __future__ import annotations

import shutil
import socket
import sqlite3
import threading
import time

import numpy as np
import pytest

from store_write_oracle import dictionary_rows

from repro.interfaces import LiDSClient
from repro.kg import GovernorService, KGGovernor
from repro.kg.errors import TransientError
from repro.kg.ontology import DATASET_GRAPH, ONTOLOGY_GRAPH, column_uri, table_uri
from repro.kg.storage import KGLiDSStorage
from repro.rdf import Literal, QuadStore, QuotedTriple, URIRef
from repro.serving import (
    LiDSServer,
    RemoteError,
    RemoteLiDSClient,
    Replica,
    ReplicaServer,
    canonical_json,
    compute_delta,
    decode_value,
    encode_value,
)
from repro.serving.protocol import unpack_ids
from repro.tabular import Column, DataLake, Table


def make_lake(num_tables: int, rows: int = 8, seed: int = 3, name: str = "svc") -> DataLake:
    lake = DataLake(name)
    rng = np.random.RandomState(seed)
    for index in range(num_tables):
        lake.add_table(
            f"ds{index % 2}",
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


@pytest.fixture
def served_lake(tmp_path):
    """A governed sqlite writer behind a LiDSServer, plus its saved snapshot."""
    writer_dir = tmp_path / "writer"
    writer_dir.mkdir()
    graph = QuadStore.sqlite(writer_dir / "graph.sqlite3")
    governor = KGGovernor(storage=KGLiDSStorage(graph=graph))
    service = GovernorService(governor, max_batch_tables=8)
    service.submit_lake(make_lake(6)).result(timeout=120)
    service.drain()
    governor.save(writer_dir)
    client = LiDSClient(service)
    server = LiDSServer(client)
    yield {
        "dir": writer_dir,
        "service": service,
        "client": client,
        "server": server,
        "governor": governor,
    }
    server.close()
    service.close()
    governor.close()


def ship_snapshot(writer_dir, replica_dir):
    shutil.copytree(writer_dir, replica_dir)
    return replica_dir


# ---------------------------------------------------------------------- codec
def test_codec_round_trips_terms_and_tables():
    table = Table(
        "result",
        columns=[
            Column("uri", [URIRef("http://kglids.org/resource/x"), None]),
            Column("lit", [Literal(3.5), Literal("text")]),
            Column("plain", [1, "two"]),
        ],
        dataset="ds",
    )
    decoded = decode_value(encode_value(table))
    assert isinstance(decoded, Table)
    assert canonical_json(decoded) == canonical_json(table)
    # Terms survive with their exact spelling, not as plain strings.
    assert isinstance(decoded.columns[0].values[0], URIRef)
    assert isinstance(decoded.columns[1].values[0], Literal)
    nested = {"rows": [URIRef("a:b"), Literal(7)], "n": 4}
    assert canonical_json(decode_value(encode_value(nested))) == canonical_json(nested)


# ----------------------------------------------------------- remote identity
def test_remote_rows_byte_identical_and_stats(served_lake):
    client = served_lake["client"]
    remote = RemoteLiDSClient(served_lake["server"].address)
    try:
        for local_result, remote_result in [
            (
                client.get_unionable_tables("ds0", "table_0", k=5),
                remote.get_unionable_tables("ds0", "table_0", k=5),
            ),
            (
                client.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 7"),
                remote.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 7"),
            ),
            (client.statistics(), remote.statistics()),
        ]:
            assert canonical_json(local_result) == canonical_json(remote_result)
        payload = remote.server_stats()
        assert payload["role"] == "writer"
        assert payload["commit_version"] == client.commit_version
        assert payload["replication_lag"] == 0
        assert payload["service"]["commit_version"] == client.commit_version
        assert remote.commit_version == client.commit_version
        with pytest.raises(RemoteError):
            remote._remote("close")  # mutation-adjacent methods are not servable
    finally:
        remote.close()


# ------------------------------------------------------------------- replicas
def test_replica_bootstraps_then_pulls_deltas(served_lake, tmp_path):
    service = served_lake["service"]
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    try:
        assert replica.commit_version == service.commit_version
        assert replica.replication_lag == 0
        # Stream more tables into the writer, then converge.
        service.submit_lake(make_lake(3, seed=11, name="extra")).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.commit_version == service.commit_version
        assert replica.replication_lag == 0
        # The writer's op log bridged the gap: row ops, no shard re-ships.
        assert replica.stats["delta_pulls"] >= 1
        assert replica.stats["full_pulls"] == 0
        local = LiDSClient(service).get_unionable_tables("ds0", "table_0", k=5)
        remote_rows = replica.client.get_unionable_tables("ds0", "table_0", k=5)
        assert canonical_json(local) == canonical_json(remote_rows)
    finally:
        replica.close()


def test_replica_follows_bulk_writes_by_delta_and_keeps_a_tight_index(served_lake, tmp_path):
    """Governing writes one ``add_many`` batch per writer and retracting is
    one ``retract_nodes`` call; a replica follows such commits by row delta
    (no full dump), and neither side's index keeps a bucket that emptied."""
    from store_write_oracle import assert_index_is_tight, index_contents

    service = served_lake["service"]
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    try:
        # Resident before the deltas land, so they are applied row by row.
        mirror = replica.client.storage.graph
        assert mirror.backend.get_index(DATASET_GRAPH) is not None
        service.submit_lake(make_lake(3, seed=11, name="extra")).result(timeout=120)
        for table in ("table_1", "table_4"):
            service.submit_retract("ds0" if table == "table_4" else "ds1", table).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.stats["delta_pulls"] >= 1 and replica.stats["full_pulls"] == 0
        assert replica.commit_version == service.commit_version
        source = served_lake["governor"].storage.graph
        with source.read_view():
            ours = source.backend.get_index(DATASET_GRAPH)
            assert_index_is_tight(ours)
            theirs = mirror.backend.get_index(DATASET_GRAPH)
            assert_index_is_tight(theirs)
            assert index_contents(theirs) == index_contents(ours)
    finally:
        replica.close()


def test_delta_ships_only_changed_graphs(tmp_path):
    store = QuadStore.sqlite(tmp_path / "g.sqlite3")
    graph_a, graph_b = URIRef("urn:graph:a"), URIRef("urn:graph:b")
    predicate = URIRef("urn:p")
    store.add(URIRef("urn:a1"), predicate, Literal(1), graph=graph_a)
    store.add(URIRef("urn:b1"), predicate, Literal(1), graph=graph_b)
    store.enable_delta_log(capacity=4)
    pinned_version = store.commit_version
    pinned_terms = store.dictionary.next_id
    store.add(URIRef("urn:a2"), predicate, Literal(2), graph=graph_a)

    payload = compute_delta(store, pinned_version, pinned_terms)
    assert payload["changed"] and not payload["full"]
    assert {op[1] for op in payload["ops"]} == {str(graph_a)}

    # Push the log past capacity: the fallback dumps changed shards only.
    for index in range(6):
        store.add(URIRef(f"urn:a{index + 10}"), predicate, Literal(index), graph=graph_a)
    payload = compute_delta(store, pinned_version, pinned_terms)
    assert payload["changed"] and payload["full"]
    assert set(payload["graphs"]) == {str(graph_a)}
    assert set(payload["all_graphs"]) == {str(graph_a), str(graph_b)}
    store.close()


def test_backend_shard_files_and_changed_since(tmp_path):
    store = QuadStore.sqlite(tmp_path / "g.sqlite3")
    graph_a, graph_b = URIRef("urn:graph:a"), URIRef("urn:graph:b")
    store.add(URIRef("urn:s"), URIRef("urn:p"), Literal(1), graph=graph_a)
    version = store.commit_version
    store.add(URIRef("urn:s"), URIRef("urn:p"), Literal(2), graph=graph_b)

    backend = store.backend
    files = backend.shard_files()
    assert set(files) == {str(graph_a), str(graph_b)}
    assert all(name.startswith("quads_") for name in files.values())
    assert len(set(files.values())) == 2
    # Only graph_b changed after ``version``; both changed since 0.
    assert store.graphs_changed_since(version) == [graph_b]
    assert set(store.graphs_changed_since(0)) == {graph_a, graph_b}
    versions = store.graph_change_versions()
    assert versions[graph_b] == store.commit_version
    assert versions[graph_a] <= version
    store.flush()
    store.close()

    # A fresh open has no in-memory marks: everything at-or-before the
    # durable version is "changed at baseline" — over-reported, never missed.
    reopened = QuadStore.sqlite(tmp_path / "g.sqlite3")
    assert reopened.graphs_changed_since(0) == [graph_a, graph_b]
    assert reopened.graphs_changed_since(reopened.commit_version) == []
    reopened.close()


def test_concurrent_replica_readers_never_see_torn_snapshots(served_lake, tmp_path):
    """Reads during refresh observe whole committed batches, old or new."""
    writer_store = served_lake["governor"].storage.graph
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    marker_graph = URIRef("urn:serving:marker")
    predicate = URIRef("urn:serving:batch")
    rows_per_batch = 24
    stop = threading.Event()
    torn: list = []

    def write_batches():
        for batch in range(30):
            with writer_store.write_batch():
                writer_store.remove_graph(marker_graph)
                for row in range(rows_per_batch):
                    writer_store.add(
                        URIRef(f"urn:serving:row{row}"),
                        predicate,
                        Literal(batch),
                        graph=marker_graph,
                    )
        stop.set()

    def keep_syncing():
        while not stop.is_set():
            replica.sync()
        replica.sync()

    def read_loop():
        store = replica.store
        while not stop.is_set():
            with store.read_view():
                values = {
                    triple.object.to_python()
                    for triple in store.triples(None, predicate, None, graph=marker_graph)
                    if isinstance(triple.object, Literal)
                }
                count = store.num_triples(marker_graph)
            if len(values) > 1 or (values and count != rows_per_batch):
                torn.append((values, count))

    writer = threading.Thread(target=write_batches)
    syncer = threading.Thread(target=keep_syncing)
    readers = [threading.Thread(target=read_loop) for _ in range(3)]
    for thread in [writer, syncer, *readers]:
        thread.start()
    for thread in [writer, syncer, *readers]:
        thread.join(timeout=120)
    assert not torn, f"torn snapshots observed: {torn[:3]}"
    # After drain the replica converges to the writer's final version.
    replica.sync()
    assert replica.commit_version == writer_store.commit_version
    final = {
        triple.object.to_python()
        for triple in replica.store.triples(None, predicate, None, graph=marker_graph)
    }
    assert final == {29}
    replica.close()


def test_replica_server_lease_serves_fresh_reads(served_lake, tmp_path):
    service = served_lake["service"]
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    replica_server = ReplicaServer(replica, lease=0.0)
    remote = RemoteLiDSClient(replica_server.address)
    try:
        service.submit_lake(make_lake(2, seed=5, name="late")).result(timeout=120)
        service.drain()
        writer_version = service.commit_version
        # lease=0: the very next request syncs first, so it must answer at
        # the writer's version without any explicit refresh call.
        payload = remote.server_stats()
        assert payload["role"] == "replica"
        assert payload["pinned_version"] == writer_version
        assert payload["replication_lag"] == 0
        assert payload["replication"]["syncs"] >= 1
        # Cross-store identity needs a deterministic ordering: two stores
        # may enumerate unordered matches differently.
        ordered = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 9"
        local = LiDSClient(service).query(ordered)
        assert canonical_json(remote.query(ordered)) == canonical_json(local)
    finally:
        remote.close()
        replica_server.close()


def test_replica_answers_view_backed_calls_like_the_writer(served_lake, tmp_path):
    """``get_path_to_table``, ``search_keywords`` and ``get_top_k_library_used``
    read structures derived per graph version and order their rows by URI /
    name, so a caught-up replica — whose store was filled in another order,
    from a snapshot plus row deltas — answers byte-identically after the
    writer adds and retracts."""
    from repro.datagen import generate_pipeline_corpus

    service = served_lake["service"]
    lake = make_lake(6)
    service.submit_pipelines(generate_pipeline_corpus(lake, pipelines_per_table=2, seed=5)).result(
        timeout=120
    )
    served_lake["governor"].save(served_lake["dir"])
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    writer = LiDSClient(service)

    def answers(client):
        calls = [client.get_path_to_table(f"ds{i % 2}", f"table_{i}", 3) for i in range(6)]
        calls += [client.get_shortest_path_between_tables("ds0", "table_0", "ds1", "table_5")]
        calls += [
            client.search_keywords(conditions)
            for conditions in ([], [["ds1", "amount"], "table_2"], "late", [["region"]])
        ]
        calls += [client.get_top_k_library_used(k) for k in (1, 3, 6, 100)]  # 6 cuts a tie
        calls += [client.get_top_used_libraries(3, task="classification")]
        return [canonical_json(answer) for answer in calls]

    try:
        before = answers(writer)
        assert answers(replica.client) == before
        late = DataLake("late")
        for index in range(2):
            columns = {"amount": [100.0 + index + row for row in range(8)], "late_note": list("abcdefgh")}
            late.add_table("ds2", Table.from_dict(f"late_{index}", columns))
        service.submit_lake(late).result(timeout=120)
        service.submit_retract("ds1", "table_3").result(timeout=120)
        service.submit_retract("ds0", "table_0").result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.stats["full_pulls"] == 0
        after = answers(writer)
        assert after != before
        assert answers(replica.client) == after
    finally:
        replica.close()


def test_replica_ranks_similar_tables_and_libraries_like_the_writer(served_lake, tmp_path):
    """The similarity calls rank by score, then table URI, and the library
    roll-up by count, then name — each a function of the graph — so a replica
    that follows an add and a retract by row deltas answers row for row in
    the writer's order, ties included."""
    from repro.datagen import generate_pipeline_corpus

    service = served_lake["service"]
    service.submit_pipelines(generate_pipeline_corpus(make_lake(6), pipelines_per_table=2, seed=5)).result(
        timeout=120
    )
    served_lake["governor"].save(served_lake["dir"])
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    writer = LiDSClient(service)
    tables = [(f"ds{index % 2}", f"table_{index}") for index in range(6)] + [("ds0", "table_late")]

    def answers(client):
        calls = [
            call(dataset, table, k)
            for dataset, table in tables
            for call in (client.get_unionable_tables, client.get_joinable_tables)
            for k in (3, 10_000)
        ]
        calls += [client.get_top_k_library_used(k) for k in (1, 3, 10)]
        calls += [client.get_top_used_libraries(10, task=task) for task in ("classification", "eda")]
        return calls

    def assert_replica_answers_like_the_writer():
        ours = answers(writer)
        assert [canonical_json(answer) for answer in answers(replica.client)] == [
            canonical_json(answer) for answer in ours
        ]
        return ours

    try:
        before = assert_replica_answers_like_the_writer()
        scores = [list(answer.column("score")) for answer in before[1:28:4]]  # unionable, k = 10 000
        assert any(first == second for column in scores for first, second in zip(column, column[1:]))
        late = DataLake("late")
        rng = np.random.RandomState(29)
        late.add_table(
            "ds0",
            Table.from_dict(
                "table_late",
                {
                    "amount": list(rng.normal(100, 5, 8)),
                    "quantity": list(rng.randint(1, 50, 8)),
                    "region": ["north", "south", "east", "west"] * 2,
                },
            ),
        )
        steps = (
            (lambda: service.submit_lake(late), True),
            (lambda: service.submit_retract("ds0", "table_late"), False),
        )
        for submit, present in steps:
            pulls = replica.stats["delta_pulls"]
            submit().result(timeout=120)
            service.drain()
            assert replica.sync() is True
            assert replica.stats["delta_pulls"] > pulls and replica.stats["full_pulls"] == 0
            after = assert_replica_answers_like_the_writer()
            assert (after[24].num_rows > 0) == present  # table_late's unionable tables, k = 3
    finally:
        replica.close()


def test_replica_follows_a_refresh_by_its_net_rows(served_lake, tmp_path):
    """A refresh writes only the rows that differ, and that is all a replica
    pulls and applies: one delta, no full dump, fewer rows than the table's
    old footprint — after which it answers unionable, joinable and path
    calls byte-identically to the writer."""
    service = served_lake["service"]
    source = served_lake["governor"].storage.graph
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    writer = LiDSClient(service)
    tables = [(f"ds{index % 2}", f"table_{index}") for index in range(6)]

    def answers(client):
        calls = [
            call(dataset, table, k)
            for dataset, table in tables
            for call in (client.get_unionable_tables, client.get_joinable_tables)
            for k in (3, 10_000)
        ]
        calls += [client.get_path_to_table(dataset, table, 3) for dataset, table in tables]
        return [canonical_json(answer) for answer in calls]

    try:
        assert answers(replica.client) == answers(writer)
        # table_0 loses ``quantity`` and gains ``price``; amount and region stay.
        original = make_lake(6).table("ds0", "table_0")
        columns = {column.name: list(column.values) for column in original.columns if column.name != "quantity"}
        columns["price"] = [round(value * 1.5, 2) for value in columns["amount"]]
        nodes = [table_uri("ds0", "table_0")] + [column_uri("ds0", "table_0", name) for name in original.column_names]
        with source.read_view():
            index = source.backend.get_index(DATASET_GRAPH)
            buckets = (index.by_subject, index.by_object, index.by_quoted_subject, index.by_quoted_object)
            footprint = {
                row for node in nodes for by_id in buckets for row in by_id.get(source.dictionary.lookup(node), ())
            }
            version = source.version
        pulls, applied = replica.stats["delta_pulls"], replica.stats["rows_applied"]
        service.submit_refresh(Table.from_dict("table_0", columns), dataset_name="ds0").result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.stats["delta_pulls"] == pulls + 1 and replica.stats["full_pulls"] == 0
        assert replica.commit_version == service.commit_version
        net = source.version - version
        assert 0 < replica.stats["rows_applied"] - applied == net < len(footprint)
        after = answers(writer)
        assert answers(replica.client) == after
    finally:
        replica.close()


# ----------------------------------------------------------- lazy durability
def test_lazy_applies_defer_durability_until_checkpoint(served_lake, tmp_path):
    """durable_applies=False: serve lazily-applied rows, checkpoint later,
    and recover a crash image by replaying the delta from the conservative
    durable version."""
    service = served_lake["service"]
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica = Replica(
        served_lake["server"].address, replica_dir, durable_applies=False
    )
    try:
        backend = replica.store.backend
        durable_before = backend.committed_version()
        service.submit_lake(make_lake(3, seed=23, name="lazy")).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.commit_version == service.commit_version
        # The apply patched memory but deferred the durable stamp: the meta
        # marker still reads the last checkpoint (the shipped snapshot).
        assert backend.committed_version() == durable_before
        ordered = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 9"
        local = LiDSClient(service).query(ordered)
        assert canonical_json(replica.client.query(ordered)) == canonical_json(local)

        # A crash image taken now still carries the conservative version, so
        # a restarted replica re-pulls the missed delta and converges —
        # idempotent ops make the replay safe over any partial flush.
        crash_dir = tmp_path / "crashed"
        shutil.copytree(replica_dir, crash_dir)
        recovered = Replica(served_lake["server"].address, crash_dir)
        try:
            assert recovered.commit_version == service.commit_version
            assert canonical_json(recovered.client.query(ordered)) == canonical_json(
                local
            )
        finally:
            recovered.close()

        # Checkpoint stamps everything applied so far durable in one commit.
        replica.checkpoint()
        assert backend.committed_version() == replica.commit_version
    finally:
        replica.close()


@pytest.mark.parametrize("durable_applies", [True, False], ids=["durable", "lazy"])
def test_replica_strays_give_way_to_the_writers_rows(served_lake, tmp_path, durable_applies):
    """Ids at or above the replica's synced watermark are local strays.  A
    stray flushed to disk must not survive a sync that ships the same text at
    the writer's (lower) id: not in the dictionary, and not in the file."""
    writer_store = served_lake["governor"].storage.graph
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica = Replica(served_lake["server"].address, replica_dir, durable_applies=durable_applies)
    replica_only, shared = Literal("a constant only the replica interns"), Literal("a constant both intern")
    try:
        start = replica.store.dictionary.next_id
        assert writer_store.dictionary.next_id == start
        assert replica.store.dictionary.encode(replica_only) == start
        assert replica.store.dictionary.encode(shared) == start + 1
        replica.checkpoint()
        connection = sqlite3.connect(replica_dir / "graph.sqlite3")
        flushed = connection.execute("SELECT n3 FROM terms WHERE id = ?", (start + 1,)).fetchone()
        connection.close()
        assert flushed == ('"a constant both intern"',)
        anchor = next(iter(writer_store.triples(graph=DATASET_GRAPH)))
        writer_store.add(anchor.subject, anchor.predicate, shared, graph=DATASET_GRAPH)
        assert writer_store.dictionary.lookup(shared) == start
        assert replica.sync() is True
        writer_rows = dictionary_rows(writer_store)
        assert replica.store.dictionary.lookup(shared) == start
        assert replica.store.dictionary.lookup(replica_only) is None
        assert dictionary_rows(replica.store) == writer_rows
    finally:
        replica.close()
    reopened = QuadStore.sqlite(replica_dir / "graph.sqlite3")
    try:
        assert reopened.dictionary.lookup(shared) == start
        assert dictionary_rows(reopened) == writer_rows
    finally:
        reopened.close()


@pytest.mark.parametrize("path", ["log", "full"])
def test_quoted_triples_replicate_as_part_ids(served_lake, tmp_path, path):
    """After a governed table, the delta frame spells no quoted triple: the
    similarity annotations' quoted subjects ship only as part-id runs.  The
    replica ends with the writer's quoted rows in memory and in sqlite, and
    a quoted constant it interned between syncs is gone from both."""
    service = served_lake["service"]
    writer_store = served_lake["governor"].storage.graph
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica = Replica(served_lake["server"].address, replica_dir)
    stray = QuotedTriple(URIRef("urn:stray:s"), URIRef("urn:stray:p"), Literal("a stray constant"))
    try:
        pinned_version, pinned_terms = replica.commit_version, replica.store.dictionary.next_id
        stray_id = replica.store.dictionary.encode(stray)
        replica.checkpoint()
        connection = sqlite3.connect(replica_dir / "graph.sqlite3")
        assert connection.execute("SELECT COUNT(*) FROM quoted WHERE id = ?", (stray_id,)).fetchone() == (1,)
        connection.close()

        # New table names: their similarity edges annotate new quoted triples.
        fresh = DataLake("quoted")
        for table in make_lake(2, seed=13).tables():
            fresh.add_table("ds_quoted", table.copy(name=f"fresh_{table.name}"))
        service.submit_lake(fresh).result(timeout=120)
        service.drain()
        if path == "full":
            # Reset the op log past the replica's version: it cannot bridge.
            writer_store.enable_delta_log()
        payload = compute_delta(writer_store, pinned_version, pinned_terms)
        assert payload["full"] is (path == "full")
        assert "<<" not in canonical_json(payload["terms"])
        shipped = unpack_ids(payload["quoted"])
        assert shipped and shipped == writer_store.dictionary.export_quoted_rows(pinned_terms)

        assert replica.sync() is True
        assert replica.stats["full_pulls" if path == "full" else "delta_pulls"] == 1
        writer_dictionary, dictionary = writer_store.dictionary, replica.store.dictionary
        writer_quoted = writer_dictionary.export_quoted_rows(1)
        assert dictionary.export_quoted_rows(1) == writer_quoted
        assert dictionary.export_rows(1) == writer_dictionary.export_rows(1)
        assert dictionary.next_id == writer_dictionary.next_id
        assert dictionary.lookup(stray) is None
        replica.checkpoint()
        connection = sqlite3.connect(replica_dir / "graph.sqlite3")
        try:
            rows = connection.execute("SELECT id, s, p, o FROM quoted ORDER BY id").fetchall()
            terms = connection.execute("SELECT id, n3 FROM terms ORDER BY id").fetchall()
        finally:
            connection.close()
        assert [part for row in rows for part in row] == writer_quoted
        assert terms == writer_dictionary.export_rows(1)
        ordered = "SELECT ?c1 ?c2 ?score WHERE { << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score } ORDER BY ?c1 ?c2 ?score"
        assert canonical_json(replica.client.query(ordered)) == canonical_json(LiDSClient(service).query(ordered))
    finally:
        replica.close()


# ----------------------------------------------------------- reopen-in-place
def test_client_reopen_in_place_reuses_dictionary(served_lake, tmp_path):
    service = served_lake["service"]
    governor = served_lake["governor"]
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    client = LiDSClient.open(replica_dir)
    try:
        before = client.get_unionable_tables("ds0", "table_0", k=5)
        backend = client.storage.graph.backend
        dictionary = client.storage.graph.dictionary
        # Force the (unchanging) ontology shard resident so identity across
        # the reopen is observable.
        ontology_index = backend.get_index(ONTOLOGY_GRAPH)
        assert ontology_index is not None

        service.submit_lake(make_lake(3, seed=17, name="fresh")).result(timeout=120)
        service.drain()
        governor.save(served_lake["dir"])
        for name in ("graph.sqlite3", "delta.json"):
            shutil.copyfile(served_lake["dir"] / name, replica_dir / name)

        info = client.reopen()
        assert info["same_lineage"] is True
        assert str(DATASET_GRAPH) in info["invalidated"]
        assert str(ONTOLOGY_GRAPH) not in info["invalidated"]
        # Same interned dictionary object, same untouched resident index.
        assert client.storage.graph.dictionary is dictionary
        assert backend.resident_index(ONTOLOGY_GRAPH) is ontology_index
        # The new snapshot's rows are visible and identical to the source's.
        assert client.commit_version == service.commit_version
        after = client.get_unionable_tables("ds0", "table_0", k=5)
        local = LiDSClient(service).get_unionable_tables("ds0", "table_0", k=5)
        assert canonical_json(after) == canonical_json(local)
        assert canonical_json(after) != canonical_json(before) or True
    finally:
        client.close()


# ------------------------------------------------------------ retry/backoff
class FlakyProxy:
    """A scripted TCP front for a real server: flap, sever, then behave.

    Behaviours consumed one per accepted connection:
    ``"refuse"`` — accept and close immediately;
    ``"sever"`` — forward the request upstream, then send only half of the
    response frame before closing (a torn frame mid-read);
    ``"pass"`` (and anything after the script runs dry) — full proxy.
    """

    def __init__(self, upstream, script):
        self.upstream = upstream
        self.script = list(script)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    @property
    def address(self):
        return self._listener.getsockname()

    def _run(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            behaviour = self.script.pop(0) if self.script else "pass"
            try:
                self._handle(connection, behaviour)
            finally:
                connection.close()

    def _handle(self, connection, behaviour):
        if behaviour == "refuse":
            return
        connection.settimeout(5.0)
        upstream = socket.create_connection(self.upstream, timeout=5.0)
        try:
            while True:
                request = connection.recv(65536)
                if not request:
                    return
                upstream.sendall(request)
                response = b""
                upstream.settimeout(5.0)
                # One response frame is enough for the scripted behaviours.
                chunk = upstream.recv(65536)
                while chunk:
                    response += chunk
                    try:
                        upstream.settimeout(0.05)
                        chunk = upstream.recv(65536)
                    except socket.timeout:
                        break
                if behaviour == "sever":
                    connection.sendall(response[: max(2, len(response) // 2)])
                    return
                connection.sendall(response)
        finally:
            upstream.close()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


def test_remote_client_retries_through_flapping_server(served_lake):
    proxy = FlakyProxy(served_lake["server"].address, ["refuse", "sever", "pass"])
    remote = RemoteLiDSClient(
        proxy.address,
        pool_size=1,
        max_retries=5,
        backoff_base=0.01,
        backoff_cap=0.05,
        backoff_seed=7,
    )
    try:
        local = served_lake["client"].get_unionable_tables("ds0", "table_0", k=5)
        result = remote.get_unionable_tables("ds0", "table_0", k=5)
        assert canonical_json(result) == canonical_json(local)
        assert remote.stats["retries"] >= 2
        assert remote.stats["reconnects"] >= 2
    finally:
        remote.close()
        proxy.close()


def test_remote_client_surfaces_transient_error_when_down():
    listener = socket.create_server(("127.0.0.1", 0))
    address = listener.getsockname()
    listener.close()  # nothing listens here any more
    remote = RemoteLiDSClient(
        address, pool_size=1, max_retries=2, backoff_base=0.01, backoff_cap=0.02
    )
    try:
        with pytest.raises(TransientError):
            remote.ping()
        assert remote.stats["retries"] == 2
    finally:
        remote.close()


# -------------------------------------------------------------------- stats
def test_staleness_is_reported_in_versions(served_lake, tmp_path):
    service = served_lake["service"]
    client = served_lake["client"]
    payload = client.stats()
    assert payload["commit_version"] == service.commit_version
    assert payload["replication_lag"] == 0
    assert payload["service"]["commit_version"] == service.commit_version
    assert "submitted" in payload["service"]

    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    try:
        pinned = replica.commit_version
        service.submit_lake(make_lake(2, seed=23, name="lagged")).result(timeout=120)
        service.drain()
        # The replica has not synced: its pin is behind, and one ping to the
        # source is enough to quantify the lag in versions.
        replica.stats["source_version"] = replica._source.commit_version
        assert replica.commit_version == pinned
        assert replica.replication_lag == service.commit_version - pinned > 0
        replica.sync()
        assert replica.replication_lag == 0
    finally:
        replica.close()
