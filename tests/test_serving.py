"""The serving tier: wire codec, writer server, replicas, remote client.

Pins the serving contracts:

* the protocol codec round-trips terms and tables byte-identically
  (``canonical_json`` equality is the currency of every identity check);
* a remote client's rows are byte-identical to the in-process client's,
  before and after the writer streams more tables;
* replica refresh pulls *deltas* (row ops) when the writer's op log can
  bridge, full dumps of only the changed graphs otherwise, and applies
  them atomically: concurrent readers never observe a torn snapshot;
* a delta pull catches a replica up in place: the same interned
  dictionary, the resident indexes patched rather than reloaded, and a
  KGpip prior book harvested again from the shipped rows;
* a replica's store refuses every local write and every term its
  dictionary would mint, leaving memory and file untouched, and each apply
  is durable: a torn apply (mid-apply or at its commit) leaves the
  pre-apply version in memory and on disk, and a copy of a synced
  replica's directory reopens at the writer's version;
* a float SUM / AVG over annotation scores reads the same on the live
  writer, on its file reopened and on a replica fed by delta, though their
  indexes yield the rows in different orders;
* a quoted triple crosses the wire only as its ``(id, s, p, o)`` part ids,
  never as a ``<< s p o >>`` spelling, on the log-bridged and full-dump
  paths alike, and the replica persists exactly the writer's part rows;
* a replica bootstrapped from a saved snapshot (no statement lists) answers
  the library calls like the writer, also after a changed-source pipeline
  re-add reaches it by delta;
* ``RemoteLiDSClient`` retries with backoff through a flapping server and
  surfaces ``TransientError`` once the endpoint is genuinely down;
* staleness is reported in commit versions (client ``stats()``, service
  ``stats`` and the replica's ``replication_lag``);
* a replica answers a repeated query from its engine's answer memo until a
  delta pull moves its store, and the ``stats`` RPC carries the engine's
  counters;
* the writer and a replica answer a repeated discovery call or delta pull
  at one store version with the frame they already built: never a frame
  built inside a rolled-back batch or at an older version, never an error
  frame kept, ``stats`` and ``statistics`` never kept, and the memo within
  its byte bound.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from store_write_oracle import dictionary_rows

from repro.interfaces import LiDSClient
from repro.kg import GovernorService, KGGovernor
from repro.kg.errors import TransientError
from repro.kg.ontology import DATASET_GRAPH, ONTOLOGY_GRAPH, LiDSOntology, column_uri, dataset_uri, table_uri
from repro.kg.storage import KGLiDSStorage
from repro.rdf import Literal, QuadStore, QuotedTriple, URIRef
from repro.rdf.serialize import serialize_nquads
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
from repro.serving import server as server_module
from repro.serving.protocol import PreparedFrame, unpack_ids
from repro.serving.server import MEMOIZED_CALLS, RequestDispatcher
from repro.sparql import SPARQLEngine
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


def test_remote_pipelines_calling_libraries_match_in_process(served_lake):
    """``get_pipelines_calling_libraries`` answers over the wire the table it
    answers in process: one call, several calls, and a call no pipeline
    makes."""
    from repro.datagen import generate_pipeline_corpus

    client = served_lake["client"]
    served_lake["service"].submit_pipelines(
        generate_pipeline_corpus(make_lake(6), pipelines_per_table=2, seed=5)
    ).result(timeout=120)
    remote = RemoteLiDSClient(served_lake["server"].address)
    try:
        for calls in (
            ("pandas.read_csv",),
            ("pandas.read_csv", "sklearn.ensemble.RandomForestClassifier"),
            ("no.such.call",),
        ):
            local = client.get_pipelines_calling_libraries(*calls)
            assert canonical_json(remote.get_pipelines_calling_libraries(*calls)) == canonical_json(local)
        assert client.get_pipelines_calling_libraries("pandas.read_csv").num_rows > 0
    finally:
        remote.close()


def test_the_shutdown_rpc_stops_the_writer_server(served_lake):
    """A ``shutdown`` RPC stops ``LiDSServer``: its serving thread's ``join``
    returns and its port stops accepting connections."""
    server = served_lake["server"]
    remote = RemoteLiDSClient(server.address, max_retries=0)
    try:
        address = server.address
        remote.shutdown_server()
        server._thread.join(5.0)
        assert not server._thread.is_alive()
        deadline = time.monotonic() + 5.0
        while True:
            try:
                socket.create_connection(address, timeout=1.0).close()
            except OSError:
                break
            assert time.monotonic() < deadline, "the writer still accepts connections"
            time.sleep(0.05)
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


def test_a_delta_pull_keeps_the_replicas_dictionary_and_resident_indexes(served_lake, tmp_path):
    """A replica catches up in place: after a delta pull it still holds the
    same interned dictionary, the resident index of a graph the writer did
    not touch (the ontology) is the same object, and a touched graph's
    resident index is patched, not reloaded from its shard."""
    service = served_lake["service"]
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    try:
        backend = replica.store.backend
        dictionary = replica.store.dictionary
        resident = {graph: backend.get_index(graph) for graph in (ONTOLOGY_GRAPH, DATASET_GRAPH)}
        assert all(index is not None for index in resident.values())
        loads = backend.shard_loads
        service.submit_lake(make_lake(3, seed=17, name="fresh")).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.stats["delta_pulls"] >= 1 and replica.stats["full_pulls"] == 0
        assert replica.commit_version == service.commit_version
        assert replica.store.dictionary is dictionary
        for graph, index in resident.items():
            assert backend.resident_index(graph) is index, graph
        assert backend.shard_loads == loads
        local = LiDSClient(service).get_unionable_tables("ds0", "table_0", k=5)
        assert canonical_json(replica.client.get_unionable_tables("ds0", "table_0", k=5)) == canonical_json(local)
    finally:
        replica.close()


def test_a_delta_pull_harvests_the_replicas_prior_book_again(served_corpus, tmp_path, monkeypatch):
    """A replica's KGpip keeps its corpus-wide prior book until a delta pull
    moves the store; the next book is harvested from the shipped rows and
    equals the writer's."""
    from repro.automl.evolution import PriorBook
    from repro.datagen import generate_pipeline_corpus

    harvests = []
    harvest = PriorBook.from_client.__func__

    def counted(cls, client, prior_probability=0.6):
        harvests.append(client)
        return harvest(cls, client, prior_probability)

    monkeypatch.setattr(PriorBook, "from_client", classmethod(counted))
    service = served_corpus["service"]
    replica = Replica(
        served_corpus["server"].address,
        ship_snapshot(served_corpus["dir"], tmp_path / "replica"),
    )
    try:
        before = replica.client.kgpip.prior_book()
        assert replica.client.kgpip.prior_book() == before
        assert len(harvests) == 1
        # Twice the corpus: the first half re-added with other sources.
        service.submit_pipelines(generate_pipeline_corpus(make_lake(6), pipelines_per_table=4, seed=5)).result(
            timeout=120
        )
        service.drain()
        assert replica.sync() is True
        after = replica.client.kgpip.prior_book()
        assert replica.client.kgpip.prior_book() == after
        assert len(harvests) == 2
        assert after != before
        assert after == LiDSClient(service).kgpip.prior_book()
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


def test_backend_changed_since(tmp_path):
    store = QuadStore.sqlite(tmp_path / "g.sqlite3")
    graph_a, graph_b = URIRef("urn:graph:a"), URIRef("urn:graph:b")
    store.add(URIRef("urn:s"), URIRef("urn:p"), Literal(1), graph=graph_a)
    version = store.commit_version
    store.add(URIRef("urn:s"), URIRef("urn:p"), Literal(2), graph=graph_b)

    # Only graph_b changed after ``version``, at the last commit; both
    # changed since 0.
    assert store.graphs_changed_since(version) == [graph_b]
    assert store.graphs_changed_since(store.commit_version - 1) == [graph_b]
    assert store.graphs_changed_since(store.commit_version) == []
    assert set(store.graphs_changed_since(0)) == {graph_a, graph_b}
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


TABLES_QUERY = "SELECT ?table WHERE { ?table a kglids:Table } ORDER BY ?table"


def test_replica_answers_the_next_versions_rows_after_a_delta_pull(served_lake, tmp_path):
    """A replica's engine answers a repeated query from its answer memo
    until a delta pull moves the store; then it answers the new rows."""
    service = served_lake["service"]
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    try:
        before = replica.client.query(TABLES_QUERY)
        assert canonical_json(replica.client.query(TABLES_QUERY)) == canonical_json(before)
        lake = DataLake("next")
        lake.add_table("ds9", Table.from_dict("fresh", {"amount": [1.5, 2.5, 3.5, 4.5], "region": list("abcd")}))
        service.submit_lake(lake).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.stats["delta_pulls"] >= 1 and replica.stats["full_pulls"] == 0
        after = replica.client.query(TABLES_QUERY)
        assert after.num_rows == before.num_rows + 1
        assert canonical_json(after) == canonical_json(LiDSClient(service).query(TABLES_QUERY))
        assert replica.client.storage.engine.stats()["answers"] == {"hits": 1, "misses": 2}
    finally:
        replica.close()


def test_stats_rpc_carries_the_engines_answer_counters(served_lake, tmp_path):
    """The ``stats`` RPC carries ``SPARQLEngine.stats()``, so a replica's (and
    the writer's) answer-memo hit ratio reads over the wire."""
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    replica_server = ReplicaServer(replica, lease=0.0)
    remotes = [RemoteLiDSClient(replica_server.address), RemoteLiDSClient(served_lake["server"].address)]
    try:
        for remote in remotes:
            before = remote.server_stats()["engine"]["answers"]
            first = remote.query(TABLES_QUERY)
            assert canonical_json(remote.query(TABLES_QUERY)) == canonical_json(first)
            engine = remote.server_stats()["engine"]
            assert set(engine) == {"pattern_memo", "filter_memo", "answers"}
            assert engine["answers"] == {"hits": before["hits"] + 1, "misses": before["misses"] + 1}
    finally:
        for remote in remotes:
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


def test_a_table_with_several_names_is_labelled_by_its_first_ranked_name(served_lake, tmp_path):
    """A table or dataset with several ``hasName`` rows is labelled by the
    name SPARQL ``ORDER BY`` puts first, so ``get_path_to_table`` and
    ``search_keywords`` give one answer whatever order the names were
    inserted in: on stores filled in shuffled orders, on the writer, and on
    a replica the aliases reached by delta."""
    service = served_lake["service"]
    writer_store = served_lake["governor"].storage.graph
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    has_name = LiDSOntology.hasName
    aliases = [
        (table_uri("ds0", "table_2"), has_name, Literal("zz_late_alias")),
        (table_uri("ds0", "table_2"), has_name, Literal("aa_early_alias")),
        (table_uri("ds1", "table_3"), has_name, Literal("mid_alias")),
        (dataset_uri("ds1"), has_name, Literal("a_dataset_alias")),
    ]
    random.Random(11).shuffle(aliases)

    def answers(client):
        calls = [client.get_path_to_table(f"ds{index % 2}", f"table_{index}", 3) for index in range(6)]
        calls += [client.search_keywords(conditions) for conditions in ([], "alias", [["ds1", "amount"]])]
        return [canonical_json(answer) for answer in calls]

    try:
        writer_store.add_many(aliases, DATASET_GRAPH)
        assert replica.sync() is True and replica.stats["full_pulls"] == 0
        writer = LiDSClient(service)
        ours = answers(writer)
        assert answers(replica.client) == ours
        found = writer.search_keywords("alias")
        labels = {(row["dataset"], row["table"]) for row in found.iter_rows()}
        assert ("ds0", "aa_early_alias") in labels and ("a_dataset_alias", "mid_alias") in labels
        assert not any("zz_late_alias" in answer for answer in ours)
        assert any("aa_early_alias ->" in answer for answer in ours[:6])
        rows = list(writer_store.triples(graph=DATASET_GRAPH))
        for seed in range(3):
            random.Random(seed).shuffle(rows)
            store = QuadStore()
            store.add_many(rows, DATASET_GRAPH)
            assert answers(LiDSClient(KGGovernor(storage=KGLiDSStorage(graph=store)))) == ours
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


def test_replica_from_a_saved_snapshot_answers_library_calls_like_the_writer(served_lake, tmp_path):
    """A saved snapshot keeps no statement lists; a replica bootstrapped from
    it answers the library calls as the writer does, also after the writer
    re-adds a pipeline with changed source and the replica pulls the delta."""
    from dataclasses import replace

    from repro.datagen import generate_pipeline_corpus

    service = served_lake["service"]
    scripts = generate_pipeline_corpus(make_lake(6), pipelines_per_table=2, seed=5)
    service.submit_pipelines(scripts).result(timeout=120)
    served_lake["governor"].save(served_lake["dir"])
    payload = json.loads((served_lake["dir"] / "pipelines.json").read_text())
    assert payload["format"] == 2
    assert not [entry for entry in payload["abstractions"] if "statements" in entry]
    replica = Replica(
        served_lake["server"].address,
        ship_snapshot(served_lake["dir"], tmp_path / "replica"),
    )
    writer = LiDSClient(service)
    calls = sorted({call for entry in payload["abstractions"] for call in entry["calls_used"]})
    calls += ["sklearn.naive_bayes.GaussianNB"]

    def answers(client):
        results = [client.get_top_used_libraries(k) for k in (1, 3, 100)]
        results += [client.get_top_used_libraries(100, task=task) for task in ("classification", "eda")]
        results += [client.get_pipelines_calling_libraries(call) for call in calls]
        results += [client.get_pipelines_calling_libraries("pandas.read_csv", call) for call in calls]
        return [canonical_json(result) for result in results]

    try:
        before = answers(writer)
        assert answers(replica.client) == before
        changed = replace(
            scripts[0],
            source_code=scripts[0].source_code
            + "\nfrom sklearn.naive_bayes import GaussianNB\nGaussianNB().fit(X, y)\n",
        )
        pulls = replica.stats["delta_pulls"]
        service.submit_pipelines([changed]).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.stats["delta_pulls"] > pulls and replica.stats["full_pulls"] == 0
        after = answers(writer)
        assert after != before
        assert answers(replica.client) == after
        nb = replica.client.get_pipelines_calling_libraries("sklearn.naive_bayes.GaussianNB")
        assert list(nb.column("name")) == [scripts[0].pipeline_id]
    finally:
        replica.close()


REPLICA_PROCESS = """
import sys
from repro.serving import serve_replica
serve_replica(sys.argv[1], int(sys.argv[2]), sys.argv[3], ready_file=sys.argv[4])
"""


def spawn_replica_process(writer_address, snapshot_dir, workdir):
    """``serve_replica`` in its own interpreter on a copy of the snapshot.

    Returns the process and its bound address once the replica has
    bootstrapped (it writes ``ready_file``)."""
    replica_dir = ship_snapshot(snapshot_dir, workdir / "replica")
    ready = workdir / "ready.json"
    source = Path(__file__).resolve().parent.parent / "src"
    with open(workdir / "stderr.txt", "w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-c", REPLICA_PROCESS, writer_address[0], str(writer_address[1]), str(replica_dir), str(ready)],
            env={**os.environ, "PYTHONPATH": str(source)},
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if ready.exists():
            try:
                info = json.loads(ready.read_text())
                return process, (info["host"], int(info["port"]))
            except (ValueError, KeyError):
                pass  # partially written
        assert process.poll() is None, (workdir / "stderr.txt").read_text()
        time.sleep(0.05)
    process.kill()
    raise AssertionError("replica process never became ready")


def test_two_replica_processes_converge_under_a_write_stream(served_lake, tmp_path):
    """Two ``serve_replica`` processes follow the writer while it governs
    four more tables one commit at a time, serving reads in between.  Both
    reach the writer's final commit version and then answer the unionable,
    joinable and path calls byte-identically to it."""
    service = served_lake["service"]
    writer = served_lake["client"]

    def answers(client):
        calls = []
        for dataset, table in (("ds0", "table_0"), ("ds1", "table_3"), ("ds2", "stream_1")):
            calls.append(client.get_unionable_tables(dataset, table, k=5))
            calls.append(client.get_joinable_tables(dataset, table, k=5))
            calls.append(client.get_path_to_table(dataset, table, 3))
        calls.append(client.query("SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o"))
        return [canonical_json(encode_value(answer)) for answer in calls]

    processes, remotes = [], []
    try:
        for slot in range(2):
            workdir = tmp_path / f"slot{slot}"
            workdir.mkdir()
            process, address = spawn_replica_process(served_lake["server"].address, served_lake["dir"], workdir)
            processes.append(process)
            remotes.append(RemoteLiDSClient(address, pool_size=1))
        pinned = [remote.commit_version for remote in remotes]
        before = answers(writer)
        stream = make_lake(4, seed=29, name="stream").tables()
        for index, table in enumerate(stream):
            service.submit_table(table.copy(name=f"stream_{index}"), "ds2").result(timeout=120)
            for remote in remotes:
                remote.get_unionable_tables("ds0", "table_0", k=5)
        service.drain()
        final_version = writer.commit_version
        assert all(version < final_version for version in pinned)
        for remote in remotes:
            deadline = time.monotonic() + 60.0
            while remote.commit_version < final_version:
                assert time.monotonic() < deadline, "a replica never caught up with the writer"
                time.sleep(0.05)
            assert remote.commit_version == final_version

        expected = answers(writer)
        assert expected != before
        assert all(remote_answers == expected for remote_answers in map(answers, remotes))
    finally:
        for remote in remotes:
            try:
                remote.shutdown_server()
            except Exception:
                pass
            remote.close()
        for process in processes:
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()


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


# ------------------------------------------------------- one apply path
def disk_dictionary(path) -> tuple:
    """A sqlite file's ``terms`` and ``quoted`` rows, shaped like ``dictionary_rows``."""
    connection = sqlite3.connect(path)
    try:
        terms = connection.execute("SELECT id, n3 FROM terms ORDER BY id").fetchall()
        quoted = [part for row in connection.execute("SELECT id, s, p, o FROM quoted ORDER BY id") for part in row]
    finally:
        connection.close()
    return terms, quoted


def test_a_copied_replica_directory_reopens_at_the_applied_version_and_converges(served_lake, tmp_path):
    """Every apply is durable: right after a sync the replica's file is
    stamped with the writer's version, so a copy of its directory (a crash
    image) reopens there, and a replica on the copy converges on the writer
    by the next delta."""
    service = served_lake["service"]
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica = Replica(served_lake["server"].address, replica_dir)
    ordered = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o LIMIT 9"
    try:
        service.submit_lake(make_lake(3, seed=23, name="applied")).result(timeout=120)
        service.drain()
        assert replica.sync() is True
        assert replica.commit_version == service.commit_version
        assert replica.store.backend.committed_version() == replica.commit_version
        crash_dir = tmp_path / "crashed"
        shutil.copytree(replica_dir, crash_dir)
    finally:
        replica.close()
    image = QuadStore.sqlite(crash_dir / "graph.sqlite3")
    try:
        assert image.commit_version == service.commit_version
    finally:
        image.close()
    service.submit_lake(make_lake(2, seed=31, name="after")).result(timeout=120)
    service.drain()
    recovered = Replica(served_lake["server"].address, crash_dir)
    try:
        assert recovered.commit_version == service.commit_version
        assert recovered.stats["full_pulls"] == 0
        writer_store = served_lake["governor"].storage.graph
        assert dictionary_rows(recovered.store) == dictionary_rows(writer_store)
        assert canonical_json(recovered.client.query(ordered)) == canonical_json(LiDSClient(service).query(ordered))
    finally:
        recovered.close()


@pytest.mark.parametrize("where", ["apply", "commit"])
def test_a_torn_apply_answers_the_pre_apply_version_and_the_retry_converges(
    served_lake, tmp_path, monkeypatch, where
):
    """A delta apply raises after its shipped term rows landed in the
    dictionary: right after one graph's rows were patched in, or at the
    batch commit, after the flush wrote the rows into the transaction.
    Reads answer the pre-apply version, the file keeps its pre-apply
    ``terms`` / ``quoted`` rows and version, and the retried sync converges
    on the writer byte for byte, live and reopened."""
    service = served_lake["service"]
    writer_store = served_lake["governor"].storage.graph
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica_file = replica_dir / "graph.sqlite3"
    replica = Replica(served_lake["server"].address, replica_dir)
    try:
        store, backend = replica.store, replica.store.backend
        durable_before = backend.committed_version()
        # Every graph resident, so the first shipped op patches an index.
        before = (serialize_nquads(store), dictionary_rows(store), store.commit_version)
        disk_before, synced = disk_dictionary(replica_file), store.dictionary.next_id
        service.submit_lake(make_lake(2, seed=29, name="torn")).result(timeout=120)
        service.drain()

        torn = []
        if where == "apply":
            apply_row_delta = backend.apply_row_delta

            def tear(graph, added, removed):
                assert store.dictionary.next_id > synced, "shipped rows have not landed"
                apply_row_delta(graph, added, removed)
                torn.append(graph)
                raise RuntimeError("torn apply")

            monkeypatch.setattr(backend, "apply_row_delta", tear)
        else:

            def tear():
                assert store.dictionary.next_id > synced, "shipped rows have not landed"
                torn.append("commit")
                raise RuntimeError("torn apply")

            monkeypatch.setattr(backend, "_txn_commit", tear)
        with pytest.raises(RuntimeError, match="torn apply"):
            replica.sync()
        monkeypatch.undo()
        assert torn and replica.stats["sync_failures"] == 1
        assert (serialize_nquads(store), dictionary_rows(store), store.commit_version) == before
        assert store.dictionary.next_id == synced
        assert disk_dictionary(replica_file) == disk_before
        assert backend.committed_version() == durable_before

        assert replica.sync() is True
        assert backend.committed_version() == service.commit_version
        writer_rows = dictionary_rows(writer_store)
        assert store.commit_version == service.commit_version
        assert dictionary_rows(store) == writer_rows
        assert disk_dictionary(replica_file) == writer_rows
        assert serialize_nquads(store) == serialize_nquads(writer_store)
    finally:
        replica.close()
    reopened = QuadStore.sqlite(replica_file)
    try:
        assert dictionary_rows(reopened) == writer_rows
        assert serialize_nquads(reopened) == serialize_nquads(writer_store)
    finally:
        reopened.close()


def test_a_replica_refuses_local_writes_and_converges_on_the_writer(served_lake, tmp_path):
    """A replica's store is a follower: a local add, remove or graph drop, a
    write batch and a term its dictionary would mint each raise
    ``PermissionError`` and leave memory and file as they were.  The next
    sync then lands the writer's rows at the writer's ids."""
    writer_store = served_lake["governor"].storage.graph
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica_file = replica_dir / "graph.sqlite3"
    replica = Replica(served_lake["server"].address, replica_dir)
    shared = Literal("a constant the writer interns later")
    try:
        store = replica.store
        anchor = next(iter(store.triples(graph=DATASET_GRAPH)))
        before = (serialize_nquads(store), dictionary_rows(store), store.commit_version, store.version)
        disk_before = disk_dictionary(replica_file)
        with pytest.raises(PermissionError):
            store.add(anchor.subject, anchor.predicate, shared, graph=DATASET_GRAPH)
        with pytest.raises(PermissionError):
            store.remove(anchor.subject, anchor.predicate, anchor.object, graph=DATASET_GRAPH)
        with pytest.raises(PermissionError):
            store.remove_graph(DATASET_GRAPH)
        with pytest.raises(PermissionError):
            with store.write_batch():
                pytest.fail("a follower's write batch ran its body")
        with pytest.raises(PermissionError):
            store.dictionary.encode(shared)
        assert store.dictionary.lookup(shared) is None
        # A known term's encode still answers its id.
        assert store.dictionary.encode(anchor.subject) == store.dictionary.lookup(anchor.subject)
        assert (serialize_nquads(store), dictionary_rows(store), store.commit_version, store.version) == before
        store.flush()
        assert disk_dictionary(replica_file) == disk_before

        start = store.dictionary.next_id
        assert writer_store.dictionary.next_id == start
        writer_store.add(anchor.subject, anchor.predicate, shared, graph=DATASET_GRAPH)
        assert replica.sync() is True
        writer_rows = dictionary_rows(writer_store)
        assert store.dictionary.lookup(shared) == start
        assert dictionary_rows(store) == writer_rows
        assert disk_dictionary(replica_file) == writer_rows
        assert serialize_nquads(store) == serialize_nquads(writer_store)
    finally:
        replica.close()
    reopened = QuadStore.sqlite(replica_file)
    try:
        assert reopened.dictionary.lookup(shared) == start
        assert dictionary_rows(reopened) == writer_rows
        assert serialize_nquads(reopened) == serialize_nquads(writer_store)
    finally:
        reopened.close()


@pytest.mark.parametrize("path", ["log", "full"])
def test_quoted_triples_replicate_as_part_ids(served_lake, tmp_path, path):
    """After a governed table, the delta frame spells no quoted triple: the
    similarity annotations' quoted subjects ship only as part-id runs.  The
    replica ends with the writer's quoted rows in memory and in sqlite, and
    it refuses to intern a quoted constant of its own — new parts or known
    ones — leaving both as they were."""
    service = served_lake["service"]
    writer_store = served_lake["governor"].storage.graph
    replica_dir = ship_snapshot(served_lake["dir"], tmp_path / "replica")
    replica = Replica(served_lake["server"].address, replica_dir)
    try:
        dictionary = replica.store.dictionary
        pinned_version, pinned_terms = replica.commit_version, dictionary.next_id
        anchor = next(iter(replica.store.triples(graph=DATASET_GRAPH)))
        known_parts = QuotedTriple(anchor.predicate, anchor.predicate, anchor.subject)
        stray = QuotedTriple(URIRef("urn:stray:s"), URIRef("urn:stray:p"), Literal("a stray constant"))
        assert dictionary.lookup(known_parts) is None
        rows_before = dictionary_rows(replica.store)
        for quoted in (stray, known_parts):
            with pytest.raises(PermissionError):
                dictionary.encode(quoted)
            assert dictionary.lookup(quoted) is None
        assert dictionary_rows(replica.store) == rows_before
        assert dictionary.next_id == pinned_terms
        replica.store.flush()
        assert disk_dictionary(replica_dir / "graph.sqlite3") == rows_before

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
        assert shipped and shipped == writer_store.dictionary.export_quoted_parts(pinned_terms)

        assert replica.sync() is True
        assert replica.stats["full_pulls" if path == "full" else "delta_pulls"] == 1
        writer_dictionary = writer_store.dictionary
        writer_quoted = writer_dictionary.export_quoted_parts(1)
        assert dictionary.export_quoted_parts(1) == writer_quoted
        assert dictionary.export_rows(1) == writer_dictionary.export_rows(1)
        assert dictionary.next_id == writer_dictionary.next_id
        assert dictionary.lookup(stray) is None
        assert disk_dictionary(replica_dir / "graph.sqlite3") == dictionary_rows(writer_store)
        ordered = "SELECT ?c1 ?c2 ?score WHERE { << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score } ORDER BY ?c1 ?c2 ?score"
        assert canonical_json(replica.client.query(ordered)) == canonical_json(LiDSClient(service).query(ordered))
    finally:
        replica.close()


SCORE_AGGREGATES = [
    f"""SELECT ?{group} (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE {{
        << ?a kglids:hasContentSimilarity ?b >> kglids:withCertainty ?v .
    }} GROUP BY ?{group} ORDER BY ?{group}"""
    for group in ("a", "b")
]


def test_float_aggregates_answer_alike_on_writer_reopened_and_replica(tmp_path):
    """600 similarity scores over 24 columns, the last 200 reaching the
    replica by delta: the live writer, its reopened file and the replica
    give equal SUMs and AVGs to the last digit.  Each builds its indexes in
    another order (insertion, sqlite key order, snapshot plus delta), so
    left-to-right float addition made them differ."""
    writer_dir = tmp_path / "writer"
    writer_dir.mkdir()
    graph = QuadStore.sqlite(writer_dir / "graph.sqlite3")
    governor = KGGovernor(storage=KGLiDSStorage(graph=graph))
    rng = random.Random(3)
    columns = [URIRef(f"urn:column:{index}") for index in range(24)]

    def score(count):
        for _ in range(count):
            first, second = rng.sample(columns, 2)
            graph.annotate(
                first,
                LiDSOntology.hasContentSimilarity,
                second,
                LiDSOntology.withCertainty,
                Literal(rng.random()),
                graph=DATASET_GRAPH,
            )

    def answers(store):
        return [SPARQLEngine(store).select(query).rows for query in SCORE_AGGREGATES]

    score(400)
    governor.save(writer_dir)
    server = LiDSServer(LiDSClient(governor))
    try:
        replica = Replica(server.address, ship_snapshot(writer_dir, tmp_path / "replica"))
        try:
            score(200)
            assert replica.sync() and replica.stats["delta_pulls"] == 1
            live, replicated = answers(graph), answers(replica.store)
        finally:
            replica.close()
    finally:
        server.close()
        governor.close()
    reopened = QuadStore.sqlite(writer_dir / "graph.sqlite3")
    try:
        assert answers(reopened) == live
    finally:
        reopened.close()
    assert replicated == live
    assert [len(rows) for rows in live] == [24, 24]


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


# ---------------------------------------------------------------- frame memo
#: One call of each memoized method over ``served_corpus``; the arguments
#: name ``table_late``, which the memo tests govern between two asks.
MEMO_CALLS = {
    "search_keywords": ([["ds0", "amount"], "table_late"],),
    "get_unionable_tables": ("ds0", "table_0", 10_000),
    "get_joinable_tables": ("ds0", "table_0", 10_000),
    "find_unionable_columns": ("ds0", "table_late", "ds0", "table_0"),
    "get_path_to_table": ("ds0", "table_late", 3),
    "get_shortest_path_between_tables": ("ds0", "table_late", "ds1", "table_5"),
    "get_top_k_library_used": (10,),
    "get_top_used_libraries": (10, "classification"),
    "recommend_hyperparameters": ("sklearn.ensemble.RandomForestClassifier",),
}


def late_lake() -> DataLake:
    """One table shaped like ``make_lake``'s, so it is unionable with them."""
    lake = DataLake("late")
    rng = np.random.RandomState(29)
    lake.add_table(
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
    return lake


@pytest.fixture
def served_corpus(served_lake):
    """``served_lake`` with a pipeline corpus, saved for replicas to ship."""
    from repro.datagen import generate_pipeline_corpus

    served_lake["service"].submit_pipelines(
        generate_pipeline_corpus(make_lake(6), pipelines_per_table=2, seed=5)
    ).result(timeout=120)
    served_lake["governor"].save(served_lake["dir"])
    return served_lake


def call_request(name, *args):
    return {"method": "call", "params": {"name": name, "args": encode_value(list(args)), "kwargs": {}}}


def answer_of(response):
    """The decoded result of one dispatched response (object or frame bytes)."""
    if isinstance(response, PreparedFrame):
        response = json.loads(response.body)
    assert response["ok"], response
    return decode_value(response["result"])


@pytest.fixture
def dispatcher():
    """A dispatcher over an in-process governor of four tables."""
    governor = KGGovernor()
    governor.add_data_lake(make_lake(4))
    yield RequestDispatcher(LiDSClient(governor))
    governor.close()


class TestFrameMemo:
    """``RequestDispatcher`` answers a repeated delta pull or memoized call at
    one ``store.version`` with the frame it already built, and never serves a
    frame the store has moved past."""

    def test_the_calls_here_are_the_allow_list(self):
        assert set(MEMO_CALLS) == MEMOIZED_CALLS
        assert not MEMOIZED_CALLS & {"query", "statistics", "stats", "get_pipelines_calling_libraries"}

    @pytest.mark.parametrize("side", ["writer", "replica"])
    @pytest.mark.parametrize("method", sorted(MEMO_CALLS))
    def test_a_repeated_call_is_a_hit_until_a_commit_reaches_the_endpoint(
        self, served_corpus, tmp_path, method, side
    ):
        """Asked twice, the second ask is a hit and both answers are the
        in-process client's; after a commit (and, on a replica, the delta
        pull its zero lease makes) the first ask is a miss that answers the
        new graph."""
        from repro.datagen import generate_pipeline_corpus

        service, writer = served_corpus["service"], served_corpus["client"]
        replica_server = None
        address = served_corpus["server"].address
        if side == "replica":
            replica = Replica(address, ship_snapshot(served_corpus["dir"], tmp_path / "replica"))
            replica_server = ReplicaServer(replica, lease=0.0)
            address = replica_server.address
        remote = RemoteLiDSClient(address)
        args = MEMO_CALLS[method]
        try:
            expected = []
            for step in ("before", "after"):
                if step == "after":
                    service.submit_lake(late_lake()).result(timeout=120)
                    service.submit_pipelines(
                        generate_pipeline_corpus(late_lake(), pipelines_per_table=3, seed=7)
                    ).result(timeout=120)
                    service.drain()
                frames = remote.server_stats()["frames"]
                answers = [canonical_json(getattr(remote, method)(*args)) for _ in range(2)]
                counted = remote.server_stats()["frames"]
                assert (counted["hits"] - frames["hits"], counted["misses"] - frames["misses"]) == (1, 1)
                expected.append(canonical_json(getattr(writer, method)(*args)))
                assert answers == [expected[-1]] * 2
            if method != "recommend_hyperparameters":  # its argmax need not move
                assert expected[0] != expected[1]
        finally:
            remote.close()
            if replica_server is not None:
                replica_server.close()

    def test_statistics_is_not_memoized(self, served_lake):
        remote = RemoteLiDSClient(served_lake["server"].address)
        try:
            first = remote.statistics()
            assert remote.statistics() == first
            served_lake["governor"].storage.register_model("late_model", object())
            assert remote.statistics()["num_models"] == first["num_models"] + 1
            assert canonical_json(remote.statistics()) == canonical_json(served_lake["client"].statistics())
            assert remote.server_stats()["frames"] == {"hits": 0, "misses": 0, "bytes": 0}
        finally:
            remote.close()

    def test_followers_pulling_one_window_share_its_frame_until_the_writer_commits(self, served_lake):
        service, store = served_lake["service"], served_lake["governor"].storage.graph
        since = (store.commit_version, store.dictionary.next_id)
        service.submit_lake(late_lake()).result(timeout=120)
        service.drain()
        followers = [RemoteLiDSClient(served_lake["server"].address) for _ in range(2)]
        try:
            pulls = [json.dumps(follower.delta(*since), sort_keys=True) for follower in followers]
            assert pulls[0] == pulls[1]
            first = json.loads(pulls[0])
            assert first["changed"] and first["version"] == store.commit_version
            assert followers[0].server_stats()["frames"]["hits"] == 1
            service.submit_retract("ds0", "table_late").result(timeout=120)
            service.drain()
            third = followers[1].delta(*since)
            assert third["version"] == store.commit_version > first["version"]
            frames = followers[1].server_stats()["frames"]
            assert (frames["hits"], frames["misses"]) == (1, 2)
        finally:
            for follower in followers:
                follower.close()

    def test_a_frame_built_inside_a_rolled_back_batch_is_not_served_after_it(self, dispatcher):
        store = dispatcher.store
        request = call_request("search_keywords", "ghost")
        dataset = store.value(table_uri("ds0", "table_0"), LiDSOntology.isPartOf, graph=DATASET_GRAPH)

        def ghost_rows(name):
            ghost = URIRef(f"http://example.org/{name}")
            return [
                (ghost, URIRef("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), LiDSOntology.Table),
                (ghost, LiDSOntology.hasName, Literal(name)),
                (ghost, LiDSOntology.isPartOf, dataset),
            ]

        def tables(response):
            return list(answer_of(response).column("table"))

        assert tables(dispatcher.dispatch(request)) == []
        with pytest.raises(RuntimeError, match="roll back"):
            with store.write_batch():
                for row in ghost_rows("ghost_table"):
                    store.add(*row, graph=DATASET_GRAPH)
                inside = store.version
                assert tables(dispatcher.dispatch(request)) == ["ghost_table"]
                raise RuntimeError("roll back")
        # The inside ask was neither kept nor counted.
        assert (dispatcher._frames.hits, dispatcher._frames.misses) == (0, 1)
        assert tables(dispatcher.dispatch(request)) == []
        # As many committed rows as the batch held bring the store back to
        # the version the batch's frame was built at, with other contents.
        for index, row in enumerate(ghost_rows("other")):
            store.add(row[0], LiDSOntology.hasName, Literal(f"unrelated {index}"), graph=URIRef("http://example.org/g"))
        assert store.version == inside
        assert tables(dispatcher.dispatch(request)) == []
        assert tables(dispatcher.dispatch(request)) == []
        assert (dispatcher._frames.hits, dispatcher._frames.misses) == (2, 2)

    def test_a_call_that_raised_answers_its_error_on_every_call(self, dispatcher):
        request = call_request("search_keywords", 5)
        for _ in range(3):
            response = dispatcher.dispatch(request)
            assert not isinstance(response, PreparedFrame)
            assert response["ok"] is False and response["error"]["type"] == "TypeError"
        assert (dispatcher._frames.hits, dispatcher._frames.misses, dispatcher._frames.size) == (0, 3, 0)

    @pytest.mark.parametrize(
        "method, args",
        [
            ("get_unionable_tables", ("ds0", "table_0", -1)),
            ("get_joinable_tables", ("ds0", "table_0", -1)),
            ("get_top_used_libraries", (-1,)),
            ("get_top_k_library_used", (-1,)),
        ],
    )
    def test_a_negative_k_answers_a_value_error_and_keeps_no_frame(self, dispatcher, served_lake, method, args):
        request = call_request(method, *args)
        for _ in range(2):
            response = dispatcher.dispatch(request)
            assert not isinstance(response, PreparedFrame)
            assert response["ok"] is False and response["error"]["type"] == "ValueError"
        assert (dispatcher._frames.hits, dispatcher._frames.misses, dispatcher._frames.size) == (0, 2, 0)
        remote = RemoteLiDSClient(served_lake["server"].address)
        try:
            for _ in range(2):
                with pytest.raises(RemoteError, match="ValueError: k must be"):
                    getattr(remote, method)(*args)
            assert remote.server_stats()["frames"]["bytes"] == 0
        finally:
            remote.close()

    def test_stats_is_never_memoized(self, dispatcher):
        for k, request in enumerate(({"method": "stats"}, call_request("stats"))):
            first = dispatcher.dispatch(request)
            dispatcher.dispatch(call_request("get_unionable_tables", "ds0", "table_0", k + 1))
            second = dispatcher.dispatch(request)
            assert not isinstance(first, PreparedFrame) and not isinstance(second, PreparedFrame)
            assert answer_of(second)["frames"]["misses"] == answer_of(first)["frames"]["misses"] + 1

    def test_the_memo_holds_at_most_its_byte_bound(self, dispatcher, monkeypatch):
        small, other = (call_request("get_unionable_tables", "ds0", "table_0", k) for k in (1, 2))
        large = call_request("search_keywords", [])
        sizes = {
            name: len(dispatcher.dispatch(request).body)
            for name, request in (("small", small), ("other", other), ("large", large))
        }
        bound = sizes["small"] + sizes["other"] - 1
        assert sizes["large"] > bound
        monkeypatch.setattr(server_module, "FRAME_MEMO_BYTES", bound)
        dispatcher = RequestDispatcher(dispatcher.client)
        for request in (small, small, other, small, large, large):
            dispatcher.dispatch(request)
            assert dispatcher._frames.size <= bound
        # small is kept and hit; other overfills, so the memo empties and
        # keeps other alone; small again empties it once more; large is
        # over the bound and never kept.
        assert (dispatcher._frames.hits, dispatcher._frames.misses) == (1, 5)
        assert dispatcher._frames.size == sizes["small"]

    def test_racing_readers_answer_like_the_in_process_client_once_commits_stop(self, served_lake):
        """Eight client threads call the memoized methods while the service
        governs and retracts tables: no call fails, and once the writer is
        quiet every answer is the in-process client's."""
        service, writer = served_lake["service"], served_lake["client"]
        address = served_lake["server"].address
        calls = [
            ("get_unionable_tables", ("ds0", "table_0", 10_000)),
            ("get_joinable_tables", ("ds1", "table_1", 10_000)),
            ("search_keywords", ([],)),
            ("get_path_to_table", ("ds0", "table_late", 3)),
            ("find_unionable_columns", ("ds0", "table_late", "ds0", "table_2")),
        ]
        stop, errors, asked = threading.Event(), [], []

        def reader():
            remote = RemoteLiDSClient(address)
            try:
                while not stop.is_set():
                    for method, args in calls:
                        getattr(remote, method)(*args)
                        asked.append(method)
            except BaseException as error:  # noqa: BLE001 — reported below
                errors.append(error)
            finally:
                remote.close()

        threads = [threading.Thread(target=reader) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        for thread in threads:
            thread.start()
        try:
            for _ in range(2):
                service.submit_lake(late_lake()).result(timeout=120)
                service.submit_retract("ds0", "table_late").result(timeout=120)
            service.submit_lake(late_lake()).result(timeout=120)
            service.drain()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert len(asked) > len(calls) * len(threads)
        remote = RemoteLiDSClient(address)
        try:
            for method, args in calls:
                assert canonical_json(getattr(remote, method)(*args)) == canonical_json(getattr(writer, method)(*args))
            assert remote.server_stats()["frames"]["hits"] > 0
        finally:
            remote.close()
        memo = served_lake["server"].dispatcher._frames
        assert memo.size == sum(len(frame.body) for frame in memo._kept.values())
