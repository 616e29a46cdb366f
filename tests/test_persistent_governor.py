"""Durable governance: backend parity, governor save/reopen, table refresh.

These tests pin the contracts of the pluggable-backend storage layer:

* the in-memory and sqlite backends return identical SPARQL results *and*
  identical ``explain()`` plans over the same governed lake (the planner's
  cardinality statistics are rebuilt faithfully on load);
* a governor can be saved, reopened in a fresh store, and keep answering
  queries / accepting incremental adds exactly as the original would;
* ``refresh_table`` retracts everything derived from a table's old contents
  — the refreshed graph is byte-identical to governing the modified lake
  from scratch, and re-adds with changed contents route through refresh;
* the retraction primitives (``remove_graph``, ``FlatIndex.remove``,
  ``EmbeddingStore.remove``) and the embedding-store disk round-trip;
* a loaded shard stays resident until it is replaced underneath it
  (``replace_shard``, ``reopen``), the rebuilt index resumes above the old
  version, and ``reopen`` refuses while anything is left to flush;
* the sqlite layout holds no secondary index, and a file written in an
  older layout (``terms.n3 UNIQUE``, a ``(p)`` index per shard; quoted
  triples spelled out in ``terms``) behaves exactly like a new one — the
  spelled layout migrates once on open or ``reopen``, also after a crash
  mid-migration;
* a saved lake holds each vector once: ``profiles.json`` carries none, and
  a reopened profile's vectors are bit-identical to the saved ones;
* a saved ``pipelines.json`` (format 2) holds each abstraction without its
  statements; re-adds after a reopen build the graph a fresh govern builds,
  a format-1 file with statement lists still opens, and a file newer than
  the code is refused with a ``SnapshotFormatError`` naming it;
* ``HNSWIndex``'s beam-search construction agrees with ``FlatIndex`` top-k.
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from store_write_oracle import dictionary_rows

from repro.embeddings.index import FlatIndex, HNSWIndex
from repro.embeddings.store import EmbeddingStore
from repro.kg import KGGovernor, LiDSOntology
from repro.kg.ontology import DATASET_GRAPH, column_uri, table_uri
from repro.kg.storage import KGLiDSStorage
from repro.rdf import Literal, QuadStore, SqliteBackend, URIRef
from repro.rdf.serialize import serialize_nquads
from repro.sparql import SPARQLEngine
from repro.tabular import DataLake, Table


def make_lake(age_shift: int = 0) -> DataLake:
    """Three tables across two datasets with overlapping columns."""
    lake = DataLake("persist_lake")
    lake.add_table(
        "titanic",
        Table.from_dict(
            "train",
            {
                "Age": [22 + age_shift, 38, 26, 35, 54, 2, 27, 14],
                "Fare": [7.25, 71.28, 7.92, 53.1, 51.86, 21.07, 11.13, 16.7],
            },
        ),
    )
    lake.add_table(
        "titanic",
        Table.from_dict(
            "test",
            {
                "Age": [21, 39, 25, 36, 55, 3, 28, 15],
                "Fare": [8.0, 70.0, 8.5, 52.0, 50.0, 22.0, 12.0, 17.0],
            },
        ),
    )
    lake.add_table(
        "heart",
        Table.from_dict(
            "heart",
            {
                "Age": [52, 61, 44, 39, 70, 33, 48, 58],
                "Chol": [212.0, 203.0, 289.0, 321.0, 269.0, 180.0, 245.0, 270.0],
            },
        ),
    )
    return lake


DISCOVERY_QUERIES = {
    "tables": "SELECT ?t ?name WHERE { ?t a kglids:Table . ?t kglids:hasName ?name . }",
    "joined_metadata": """
        SELECT ?col ?colname ?tablename WHERE {
            ?col kglids:hasName ?colname .
            ?col a kglids:Column .
            ?col kglids:isPartOf ?table .
            ?table kglids:hasName ?tablename .
        }
    """,
    "similarity": """
        SELECT ?c1 ?c2 ?score WHERE {
            << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
        }
    """,
    "type_histogram": """
        SELECT ?type (COUNT(?col) AS ?n) WHERE {
            ?col a kglids:Column .
            ?col kglids:hasFineGrainedType ?type .
        } GROUP BY ?type ORDER BY ?type
    """,
}


def rows_of(store: QuadStore, query: str):
    return sorted(map(str, SPARQLEngine(store).select(query).rows))


def spell_quoted_terms(path) -> int:
    """Rewrite a closed sqlite file into layout 1, the layout before quoted
    triples were stored as part ids: each quoted triple is a ``terms`` row
    spelled ``<< s p o >>`` from its parts' stored spellings, there is no
    ``quoted`` table and no ``meta.layout`` row.  Returns the rows spelled."""
    connection = sqlite3.connect(path)
    try:
        texts = dict(connection.execute("SELECT id, n3 FROM terms"))
        quoted = connection.execute("SELECT id, s, p, o FROM quoted ORDER BY id").fetchall()
        for term_id, subject, predicate, obj in quoted:
            texts[term_id] = f"<< {texts[subject]} {texts[predicate]} {texts[obj]} >>"
            connection.execute("INSERT INTO terms (id, n3) VALUES (?, ?)", (term_id, texts[term_id]))
        connection.execute("DROP TABLE quoted")
        connection.execute("DELETE FROM meta WHERE key = 'layout'")
        connection.commit()
    finally:
        connection.close()
    return len(quoted)


# --------------------------------------------------------------------------
# Backend parity
# --------------------------------------------------------------------------
class TestBackendParity:
    def test_governed_graphs_identical_across_backends(self, tmp_path):
        memory_governor = KGGovernor()
        memory_governor.add_data_lake(make_lake())
        sqlite_store = QuadStore.sqlite(tmp_path / "lids.sqlite3")
        sqlite_governor = KGGovernor(storage=KGLiDSStorage(graph=sqlite_store))
        sqlite_governor.add_data_lake(make_lake())
        assert serialize_nquads(memory_governor.storage.graph) == serialize_nquads(
            sqlite_governor.storage.graph
        )
        sqlite_governor.close()

    def test_sparql_results_and_plans_identical(self, tmp_path):
        memory_governor = KGGovernor()
        memory_governor.add_data_lake(make_lake())
        directory = tmp_path / "saved"
        memory_governor.save(directory)

        reopened = QuadStore.sqlite(directory / "graph.sqlite3")
        memory_store = memory_governor.storage.graph
        memory_engine = SPARQLEngine(memory_store)
        sqlite_engine = SPARQLEngine(reopened)
        for name, query in DISCOVERY_QUERIES.items():
            assert rows_of(memory_store, query) == rows_of(reopened, query), name
            assert memory_engine.explain(query) == sqlite_engine.explain(query), name
        reopened.close()

    def test_statistics_rebuilt_on_load(self, tmp_path):
        memory_governor = KGGovernor()
        memory_governor.add_data_lake(make_lake())
        directory = tmp_path / "saved"
        memory_governor.save(directory)
        reopened = QuadStore.sqlite(directory / "graph.sqlite3")
        predicate = LiDSOntology.hasName
        assert reopened.predicate_statistics(
            predicate, DATASET_GRAPH
        ) == memory_governor.storage.graph.predicate_statistics(predicate, DATASET_GRAPH)
        assert reopened.statistics() == memory_governor.storage.graph.statistics()
        reopened.close()


# --------------------------------------------------------------------------
# Sqlite backend primitives
# --------------------------------------------------------------------------
class TestSqliteBackend:
    def test_round_trip_with_annotations(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        store = QuadStore.sqlite(path)
        a, b = URIRef("http://x/a"), URIRef("http://x/b")
        sim, score = URIRef("http://x/sim"), URIRef("http://x/score")
        store.add(a, sim, b, graph=DATASET_GRAPH)
        store.annotate(a, sim, b, score, Literal(0.75), graph=DATASET_GRAPH)
        store.add(b, sim, a)
        store.close()

        reopened = QuadStore.sqlite(path)
        assert reopened.num_triples() == 3
        assert reopened.annotation(a, sim, b, score, graph=DATASET_GRAPH) == 0.75
        assert [t.object for t, _ in reopened.match_quoted(inner_subject=a)] == [
            Literal(0.75)
        ]
        reopened.close()

    def test_lazy_graph_loading(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        store = QuadStore.sqlite(path)
        g1, g2 = URIRef("http://x/g1"), URIRef("http://x/g2")
        store.add(URIRef("http://x/a"), URIRef("http://x/p"), Literal(1), graph=g1)
        store.add(URIRef("http://x/b"), URIRef("http://x/p"), Literal(2), graph=g2)
        store.close()

        reopened = QuadStore.sqlite(path)
        backend = reopened.backend
        assert isinstance(backend, SqliteBackend)
        assert sorted(reopened.graphs()) == sorted([g1, g2])
        assert backend._indexes == {}  # nothing loaded yet
        assert reopened.num_triples(g1) == 1  # counted from the shard catalog
        assert g1 not in backend._indexes
        assert len(list(reopened.triples(graph=g1))) == 1
        assert g1 in backend._indexes and g2 not in backend._indexes
        reopened.close()

    def test_remove_graph_persists(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        store = QuadStore.sqlite(path)
        graph = URIRef("http://x/g")
        store.add(URIRef("http://x/a"), URIRef("http://x/p"), Literal(1), graph=graph)
        assert store.remove_graph(graph)
        store.close()
        reopened = QuadStore.sqlite(path)
        assert reopened.num_triples() == 0
        reopened.close()

    def test_versions_stay_monotonic_across_invalidation(self, tmp_path):
        """A loaded index stays resident until its graph is replaced
        underneath it — by ``replace_shard`` or ``reopen`` — and the index
        rebuilt after that resumes above the dropped one's version, even at
        an equal row count, so version-keyed caches see the change and
        ``derived_view`` rebuilds."""
        store = QuadStore.sqlite(tmp_path / "store.sqlite3")
        backend = store.backend
        graph, other, p = URIRef("http://x/g"), URIRef("http://x/other"), URIRef("http://x/p")
        store.add_many([(URIRef(f"http://x/s{i}"), p, Literal(i)) for i in range(4)], graph)
        store.add(URIRef("http://x/o"), p, Literal(0), graph=other)
        encode = store.dictionary.encode
        replacement = [(encode(URIRef(f"http://x/t{i}")), encode(p), encode(Literal(i))) for i in range(4)]
        builds = []

        def build(columns, index):
            builds.append(index)
            return sorted(index.triples)

        def rows_view():
            with store.read_view():
                return store.derived_view(graph, "rows", build)

        for invalidation in ("replace_shard", "reopen"):
            observed = store.graph_version(graph)
            resident, before = backend.resident_index(graph), rows_view()
            list(store.triples(graph=other))
            assert rows_view() is before and backend.resident_index(graph) is resident
            loads, built = backend.shard_loads, len(builds)
            if invalidation == "replace_shard":
                with store.replication_batch(store.commit_version + 1):
                    backend.replace_shard(graph, replacement)
            else:
                store.reopen()
            assert backend.resident_index(graph) is None, invalidation
            assert store.graph_version(graph) > observed, invalidation
            assert rows_view() == sorted(replacement) and len(builds) == built + 1, invalidation
            assert backend.shard_loads == loads + 1, invalidation
        store.close()

    def test_reopen_refuses_a_buffered_stray_floor(self, tmp_path):
        """A lazy replica apply that ships rows from below a local stray (a
        term the replica interned and flushed past its synced watermark)
        leaves the stray's on-disk row for the next flush to delete.
        ``reopen`` used to accept that and the next flush deleted the *new*
        file's terms, leaving shards whose ids no longer decode; it must
        refuse, like any other unflushed write."""
        writer_path, replica_path = tmp_path / "writer.sqlite3", tmp_path / "replica.sqlite3"
        writer = QuadStore.sqlite(writer_path)
        writer.add(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1))
        writer.flush()
        writer.backend.checkpoint()
        shutil.copyfile(writer_path, replica_path)
        replica = QuadStore.sqlite(replica_path)
        synced = replica.dictionary.next_id
        assert replica.dictionary.encode(URIRef("http://x/stray")) == synced
        replica.flush()
        replica.backend.checkpoint()
        connection = sqlite3.connect(replica_path)
        assert connection.execute("SELECT n3 FROM terms WHERE id = ?", (synced,)).fetchall() == [("<http://x/stray>",)]
        connection.close()
        with replica.replication_batch(replica.commit_version + 1, durable=False):
            replica.backend.ingest_term_rows(synced, [])
        assert replica.dictionary.lookup(URIRef("http://x/stray")) is None
        writer.add(URIRef("http://x/t"), URIRef("http://x/q"), Literal(2))
        writer.flush()
        writer.backend.checkpoint()
        # A newer snapshot of the same lineage lands at the replica's path.
        shutil.copyfile(writer_path, tmp_path / "landing.sqlite3")
        os.replace(tmp_path / "landing.sqlite3", replica_path)
        with pytest.raises(RuntimeError, match="unflushed"):
            replica.reopen()
        assert replica.dictionary.next_id == synced
        # Any flush now (a close, a count, a shard load) would delete the
        # stale rows through the replaced path's WAL, in the landed file: the
        # replica is dropped without one.
        replica.backend.crash()
        replica.close()
        landed = QuadStore.sqlite(replica_path)
        try:
            assert dictionary_rows(landed) == dictionary_rows(writer)
            assert len(landed.dictionary) == 6
            assert serialize_nquads(landed) == serialize_nquads(writer)
        finally:
            landed.close()
            writer.close()

    def test_a_failed_durable_apply_over_a_stray_leaves_the_file_matching_the_dictionary(self, tmp_path):
        """A durable apply ships rows over a flushed local stray, flushes its
        quads mid-batch and fails.  The rollback takes the quads back and the
        stray row stays on disk while the dictionary keeps the shipped row at
        that id, so the next flush must replace the row: the file then holds
        what the dictionary holds, live and reopened."""
        writer_path, replica_path = tmp_path / "writer.sqlite3", tmp_path / "replica.sqlite3"
        writer = QuadStore.sqlite(writer_path)
        writer.add(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1))
        writer.flush()
        writer.backend.checkpoint()
        shutil.copyfile(writer_path, replica_path)
        replica = QuadStore.sqlite(replica_path)
        replica.backend.flush_threshold = 1
        synced = replica.dictionary.next_id
        replica.dictionary.encode(URIRef("http://x/stray"))
        replica.flush()
        writer.add(URIRef("http://x/t"), URIRef("http://x/q"), Literal(2))
        shipped = writer.dictionary.export_rows(synced)
        with pytest.raises(RuntimeError, match="torn"):
            with replica.replication_batch(replica.commit_version + 1):
                replica.backend.ingest_term_rows(synced, shipped)
                replica.backend.apply_row_delta(URIRef("http://x/g"), [(synced, synced + 1, synced + 2)], [])
                raise RuntimeError("torn")
        assert replica.dictionary.export_rows(1) == writer.dictionary.export_rows(1)[:synced]
        replica.flush()
        connection = sqlite3.connect(replica_path)
        try:
            on_disk = connection.execute("SELECT id, n3 FROM terms ORDER BY id").fetchall()
        finally:
            connection.close()
        assert on_disk == replica.dictionary.export_rows(1)
        assert replica.graphs() == writer.graphs()
        replica.close()
        reopened = QuadStore.sqlite(replica_path)
        try:
            assert reopened.dictionary.export_rows(1) == on_disk
        finally:
            reopened.close()
            writer.close()

    def test_literal_escapes_round_trip(self, tmp_path):
        """Backslash-then-n/r/t values must survive the text serialization.

        Sequential ``str.replace`` unescaping would decode the serialized
        form of ``C:\\new`` (an escaped backslash followed by a plain ``n``)
        as a newline; the sqlite backend puts that parser on the main
        persistence path, so pin the round trip.
        """
        path = tmp_path / "store.sqlite3"
        store = QuadStore.sqlite(path)
        subject, predicate = URIRef("http://x/s"), URIRef("http://x/p")
        values = ["C:\\new\\table.csv", "tab\\there", "a\\\\b", 'quote"\\n', "real\nnewline\ttab"]
        for position, value in enumerate(values):
            store.add(URIRef(f"http://x/s{position}"), predicate, Literal(value))
        store.close()
        reopened = QuadStore.sqlite(path)
        for position, value in enumerate(values):
            assert reopened.value(URIRef(f"http://x/s{position}"), predicate) == value
        reopened.close()

    def test_layout_has_no_secondary_indexes(self, tmp_path):
        """``terms`` is its integer key and its text, a shard its ``(s, p, o)``
        key: terms are looked up in the in-memory dictionary and triples
        matched on the in-memory index, so no SQL reads a second index."""
        directory = tmp_path / "lake"
        directory.mkdir()
        governor = KGGovernor(
            storage=KGLiDSStorage(graph=QuadStore.sqlite(directory / "graph.sqlite3"))
        )
        governor.add_data_lake(make_lake())
        governor.save(directory)
        governor.close()
        connection = sqlite3.connect(directory / "graph.sqlite3")
        try:
            assert connection.execute("PRAGMA index_list('terms')").fetchall() == []
            shards = [f"quads_{shard_id}" for (shard_id,) in connection.execute("SELECT id FROM graphs")]
            assert len(shards) >= 2
            for shard in shards:
                origins = [row[3] for row in connection.execute(f"PRAGMA index_list('{shard}')")]
                assert origins == ["pk"], f"{shard} has a secondary index: {origins}"
        finally:
            connection.close()

    def test_files_in_the_older_layout_behave_like_new_ones(self, tmp_path):
        """Older code wrote ``terms.n3 UNIQUE`` and a ``(p)`` index per shard,
        and, until layout 2, spelled every quoted triple out in ``terms``.
        An indexed file keeps its indexes; a spelled file migrates once, on
        its first open.  Today's code opens either, governs, refreshes,
        retracts and reopens it with the same answers (row order included),
        dictionary rows and shard rows as a file in today's layout."""

        class OlderLayoutBackend(SqliteBackend):
            def _ensure_layout(self):
                self._connection.execute(
                    "CREATE TABLE IF NOT EXISTS terms (id INTEGER PRIMARY KEY, n3 TEXT UNIQUE NOT NULL)"
                )
                super()._ensure_layout()

            def _create_shard_table(self, shard_id):
                super()._create_shard_table(shard_id)
                self._connection.execute(
                    f"CREATE INDEX IF NOT EXISTS quads_{shard_id}_predicate ON quads_{shard_id} (p)"
                )

        extra = Table.from_dict(
            "extra",
            {"Age": [30, 40, 50, 60, 20, 10, 45, 35], "Fare": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
        )

        def evolve(directory, backend_class, spelled=False):
            directory.mkdir()
            store = QuadStore(backend=backend_class(directory / "graph.sqlite3"))
            governor = KGGovernor(storage=KGLiDSStorage(graph=store))
            governor.add_data_lake(make_lake())
            governor.save(directory)
            governor.close()
            spelled_rows = spell_quoted_terms(directory / "graph.sqlite3") if spelled else 0
            governor = KGGovernor.open(directory)
            assert governor.storage.graph.backend.recovery["migrated_quoted_terms"] == spelled_rows
            governor.add_table(extra.copy(), dataset_name="titanic")
            governor.refresh_table(make_lake(age_shift=5).table("titanic", "train"))
            assert governor.retract_table("heart", "heart")
            governor.save(directory)
            governor.close()
            reopened = KGGovernor.open(directory)
            graph = reopened.storage.graph
            # A second open finds the file migrated already.
            assert graph.backend.recovery["migrated_quoted_terms"] == 0
            answers = [list(map(str, SPARQLEngine(graph).select(query).rows)) for query in DISCOVERY_QUERIES.values()]
            # Match order follows the order a shard's rows were loaded in.
            answers += [list(map(str, graph.triples(graph=name))) for name in graph.graphs()]
            terms = (graph.dictionary.export_rows(1), graph.dictionary.export_quoted_parts(1), graph.dictionary.next_id)
            reopened.close()
            connection = sqlite3.connect(directory / "graph.sqlite3")
            try:
                shards = {
                    name: connection.execute(f"SELECT s, p, o FROM quads_{shard_id} ORDER BY s, p, o").fetchall()
                    for shard_id, name in connection.execute("SELECT id, name FROM graphs")
                }
                indexes = {
                    name
                    for (name,) in connection.execute(
                        "SELECT name FROM sqlite_master WHERE type = 'index'"
                        " AND (tbl_name = 'terms' OR tbl_name LIKE 'quads_%')"
                    )
                    if not name.startswith("sqlite_autoindex_quads_")
                }
            finally:
                connection.close()
            return answers, terms, shards, indexes

        *old, old_indexes = evolve(tmp_path / "old", OlderLayoutBackend)
        *spelled, spelled_indexes = evolve(tmp_path / "spelled", SqliteBackend, spelled=True)
        *new, new_indexes = evolve(tmp_path / "new", SqliteBackend)
        assert new_indexes == spelled_indexes == set()
        assert "sqlite_autoindex_terms_1" in old_indexes
        assert any(name.endswith("_predicate") for name in old_indexes)
        assert new[1][1], "the lake holds no quoted triple to migrate"
        assert old == new
        assert spelled == new

    def test_reopen_onto_a_spelled_file_migrates_it(self, tmp_path):
        """A layout-1 file replaced underneath an open store goes through the
        same migration on ``reopen`` as on a cold open."""
        spelled, served = tmp_path / "spelled.sqlite3", tmp_path / "served.sqlite3"
        writer = QuadStore.sqlite(spelled)
        writer.annotate(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1), URIRef("http://x/score"), Literal(0.5))
        expected = (serialize_nquads(writer), writer.dictionary.export_quoted_parts(1))
        writer.close()
        assert spell_quoted_terms(spelled) == 1
        store = QuadStore.sqlite(served)
        store.backend.checkpoint()
        shutil.copyfile(spelled, served)
        try:
            store.reopen()
            assert (serialize_nquads(store), store.dictionary.export_quoted_parts(1)) == expected
        finally:
            store.close()

    def test_a_file_another_connection_migrated_first_is_not_migrated_again(self, tmp_path):
        """Two connections open one layout-1 file: the one that takes the
        write lock second finds the file migrated and moves nothing."""
        path = tmp_path / "spelled.sqlite3"
        writer = QuadStore.sqlite(path)
        writer.annotate(URIRef("http://x/s"), URIRef("http://x/p"), Literal(1), URIRef("http://x/score"), Literal(0.5))
        expected = (serialize_nquads(writer), dictionary_rows(writer))
        writer.close()
        assert spell_quoted_terms(path) == 1

        class OvertakenBackend(SqliteBackend):
            # A rival connection migrates the file between this one's layout
            # check and its BEGIN IMMEDIATE.
            racing = False

            def _migrate_layout(self):
                self.racing = True
                return super()._migrate_layout()

            def _txn_begin(self):
                if self.racing:
                    self.racing = False
                    rival = SqliteBackend(self.path)
                    assert rival.recovery["migrated_quoted_terms"] == 1
                    rival.close()
                super()._txn_begin()

        store = QuadStore(backend=OvertakenBackend(path))
        try:
            assert store.backend.recovery["migrated_quoted_terms"] == 0
            assert (serialize_nquads(store), dictionary_rows(store)) == expected
        finally:
            store.close()

    def test_a_crash_inside_the_migration_leaves_a_file_that_opens_to_the_same_graph(self, tmp_path):
        """Layout 1 migrates in one transaction: a process killed before any
        statement of it (``os._exit``, no rollback, no close) leaves a file
        that a later open migrates and reads as the same graph."""
        path = tmp_path / "spelled.sqlite3"
        governor = KGGovernor(storage=KGLiDSStorage(graph=QuadStore.sqlite(path)))
        governor.add_data_lake(make_lake())
        graph = governor.storage.graph
        expected = (serialize_nquads(graph), graph.dictionary.export_rows(1), graph.dictionary.export_quoted_parts(1))
        governor.close()
        spelled_rows = spell_quoted_terms(path)
        assert spelled_rows > 0
        source = Path(__file__).resolve().parent.parent / "src"
        crashes = 0
        for point in range(1, 20):
            copy = tmp_path / f"crash_{point}.sqlite3"
            shutil.copyfile(path, copy)
            finished = subprocess.run(
                [sys.executable, "-c", MIGRATION_CRASH_PROBE, str(copy), str(point)],
                env={**os.environ, "PYTHONPATH": str(source)},
                capture_output=True,
                text=True,
                timeout=120,
            )
            if finished.returncode == 0:
                break
            assert finished.returncode == 17, finished.stderr
            crashes += 1
            store = QuadStore.sqlite(copy)
            try:
                assert store.backend.recovery["migrated_quoted_terms"] == spelled_rows, point
                dictionary = store.dictionary
                assert (serialize_nquads(store), dictionary.export_rows(1), dictionary.export_quoted_parts(1)) == expected, point
            finally:
                store.close()
        # BEGIN, the quoted rows, the terms delete, the layout stamp, COMMIT.
        assert crashes == 5

    def test_version_counters_still_work(self, tmp_path):
        store = QuadStore.sqlite(tmp_path / "store.sqlite3")
        graph = URIRef("http://x/g")
        before = store.graph_version(graph)
        store.add(URIRef("http://x/a"), URIRef("http://x/p"), Literal(1), graph=graph)
        assert store.graph_version(graph) > before
        assert store.version == 1
        store.close()


# --------------------------------------------------------------------------
# Governor save / reopen
# --------------------------------------------------------------------------
class TestGovernorPersistence:
    def test_each_vector_is_saved_once_and_reopens_bit_identical(self, tmp_path):
        """``profiles.json`` carries no vector: content and table vectors are
        the embedding store's rows, label vectors their own archive member.
        Reopened, every one equals the saved float64 bits."""
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        directory = tmp_path / "lake"
        governor.save(directory)

        def keys(value):
            if isinstance(value, dict):
                return set(value) | {key for item in value.values() for key in keys(item)}
            if isinstance(value, list):
                return {key for item in value for key in keys(item)}
            return set()

        payload = json.loads((directory / "profiles.json").read_text())
        assert not keys(payload) & {"embedding", "label_embedding"}
        with np.load(directory / "embeddings.npz") as archive:
            assert archive["label_vectors"].dtype == np.float64

        def bits(vector):
            return np.asarray(vector, dtype=float).tobytes()

        reopened = KGGovernor.open(directory)
        assert len(reopened.table_profiles) == len(governor.table_profiles) == 3
        for saved, loaded in zip(governor.table_profiles, reopened.table_profiles):
            assert (loaded.dataset_name, loaded.table_name) == (saved.dataset_name, saved.table_name)
            assert loaded.embedding.dtype == np.float64
            assert bits(loaded.embedding) == bits(saved.embedding)
            assert len(loaded.column_profiles) == len(saved.column_profiles)
            for saved_column, loaded_column in zip(saved.column_profiles, loaded.column_profiles):
                assert loaded_column.to_dict() == saved_column.to_dict()
                for field in ("embedding", "label_embedding"):
                    vector = getattr(loaded_column, field)
                    assert vector.dtype == np.float64, field
                    assert bits(vector) == bits(getattr(saved_column, field)), field
        reopened.close()

    def test_a_closed_lake_is_freed_without_the_cycle_collector(self, tmp_path):
        """A graph index caches its column snapshot, and the snapshot and the
        views built on it refer back to the index; closing the store cuts
        that cycle, so a dropped lake's indexes are freed at once, not at
        the cycle collector's next full pass."""
        import gc

        from repro.interfaces import LiDSClient
        from repro.rdf.graph_index import GraphIndex

        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.save(tmp_path / "lake")
        client = LiDSClient.open(tmp_path / "lake")
        assert client.get_unionable_tables("titanic", "train", k=3).num_rows > 0
        index = client.storage.graph.backend.get_index(DATASET_GRAPH)
        assert index.columnar() is index.columnar()
        del index
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            client.close()
            del client
            gc.collect()
            assert not [item for item in gc.garbage if isinstance(item, GraphIndex)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()

    def test_store_uid_has_one_length_whatever_the_draw(self, tmp_path, monkeypatch):
        """The lineage uid is spelled out in ``delta.json``; drawn from
        [2^61, 2^62) it always has 19 digits, so the lowest and the highest
        draw write manifests of one length (and one store ratio)."""
        import random

        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        manifests = []
        for draw in (0, (1 << 61) - 1):
            monkeypatch.setattr(random, "getrandbits", lambda bits, draw=draw: draw)
            directory = governor.save(tmp_path / str(draw))
            manifests.append((directory / "delta.json").read_bytes())
        uids = [json.loads(manifest)["store_uid"] for manifest in manifests]
        assert uids == [1 << 61, (1 << 62) - 1]
        assert [len(str(uid)) for uid in uids] == [19, 19]
        assert len(manifests[0]) == len(manifests[1])

    def test_save_reopen_round_trip(self, tmp_path):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        directory = tmp_path / "lake"
        governor.save(directory)

        reopened = KGGovernor.open(directory)
        assert serialize_nquads(reopened.storage.graph) == serialize_nquads(
            governor.storage.graph
        )
        for name, query in DISCOVERY_QUERIES.items():
            assert rows_of(reopened.storage.graph, query) == rows_of(
                governor.storage.graph, query
            ), name
        # Lookup state restored.
        assert reopened.table_profile("titanic", "train") is not None
        assert reopened.storage.embeddings.count() == governor.storage.embeddings.count()
        assert (
            reopened.storage.embeddings.search(
                "column",
                governor.storage.embeddings.get(
                    "column", governor.storage.embeddings.keys("column")[0]
                ),
                k=1,
            )
            == governor.storage.embeddings.search(
                "column",
                governor.storage.embeddings.get(
                    "column", governor.storage.embeddings.keys("column")[0]
                ),
                k=1,
            )
        )
        reopened.close()

    def test_incremental_add_after_reopen_matches_scratch(self, tmp_path):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        directory = tmp_path / "lake"
        governor.save(directory)

        extra = Table.from_dict(
            "extra",
            {"Age": [30, 40, 50, 60, 20, 10, 45, 35], "Fare": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
        )
        reopened = KGGovernor.open(directory)
        reopened.add_table(extra.copy(), dataset_name="titanic")

        scratch = KGGovernor()
        full_lake = make_lake()
        full_lake.add_table("titanic", extra.copy())
        scratch.add_data_lake(full_lake)
        assert serialize_nquads(reopened.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )
        reopened.close()

    def test_reopen_skips_unchanged_and_refreshes_changed(self, tmp_path):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        directory = tmp_path / "lake"
        governor.save(directory)

        reopened = KGGovernor.open(directory)
        unchanged = reopened.add_data_lake(make_lake())
        assert unchanged.num_tables_profiled == 0
        assert unchanged.refreshed_tables == []
        changed = reopened.add_data_lake(make_lake(age_shift=3))
        assert changed.refreshed_tables == ["titanic/train"]
        reopened.close()

    def test_linker_restored_after_reopen(self, tmp_path):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        directory = tmp_path / "lake"
        governor.save(directory)

        reopened = KGGovernor.open(directory)
        known = reopened.linker._known_tables_for(reopened.storage.graph)
        assert ("titanic", "train") in known
        assert known[("titanic", "train")] == table_uri("titanic", "train")
        reopened.close()


# --------------------------------------------------------------------------
# Table refresh / retraction
# --------------------------------------------------------------------------
class TestRefreshTable:
    def test_refresh_matches_scratch_byte_identical(self):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        modified_train = make_lake(age_shift=7).table("titanic", "train")
        report = governor.refresh_table(modified_train)
        assert report.refreshed_tables == ["titanic/train"]

        scratch = KGGovernor()
        scratch.add_data_lake(make_lake(age_shift=7))
        assert serialize_nquads(governor.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )
        assert sorted(governor.storage.embeddings.keys("column")) == sorted(
            scratch.storage.embeddings.keys("column")
        )

    def test_refresh_drops_stale_columns_and_embeddings(self):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        # The new train table loses "Fare" and gains "Name".
        replacement = Table.from_dict(
            "train",
            {
                "Age": [22, 38, 26, 35, 54, 2, 27, 14],
                "Name": ["ann", "bob", "cat", "dan", "eve", "fred", "gil", "hal"],
            },
        )
        governor.refresh_table(replacement, dataset_name="titanic")

        scratch_lake = DataLake("persist_lake")
        scratch_lake.add_table("titanic", replacement.copy())
        scratch_lake.add_table("titanic", make_lake().table("titanic", "test"))
        scratch_lake.add_table("heart", make_lake().table("heart", "heart"))
        scratch = KGGovernor()
        scratch.add_data_lake(scratch_lake)
        assert serialize_nquads(governor.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )
        stale = str(column_uri("titanic", "train", "Fare"))
        assert governor.storage.embeddings.get("column", stale) is None

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
    def test_infinite_cells_govern_and_refresh_like_a_fresh_add(self, tmp_path):
        """A float column holding ``±inf`` used to fail its whole batch (the
        numeric featurizer overflowed at ``int(abs(value))``).  It governs
        with finite embeddings, a refresh into it equals a fresh govern, and
        the profile keeps what the statistics make of it."""
        inf, nan = float("inf"), float("nan")
        infinite = Table.from_dict(
            "train",
            {
                "Age": [22, 38, 26, 35, 54, 2, 27, 14],
                "Fare": [7.25, inf, -inf, 53.1, 51.86, nan, 11.13, 16.7],
            },
        )
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.refresh_table(infinite, dataset_name="titanic")
        scratch_lake = DataLake("persist_lake")
        scratch_lake.add_table("titanic", infinite.copy())
        scratch_lake.add_table("titanic", make_lake().table("titanic", "test"))
        scratch_lake.add_table("heart", make_lake().table("heart", "heart"))
        scratch = KGGovernor()
        scratch.add_data_lake(scratch_lake)
        assert serialize_nquads(governor.storage.graph) == serialize_nquads(scratch.storage.graph)

        profile = governor.table_profile("titanic", "train")
        assert np.isfinite(profile.embedding).all()
        fare = next(column for column in profile.column_profiles if column.column_name == "Fare")
        assert fare.fine_grained_type == "float" and np.isfinite(fare.embedding).all()
        stats = fare.statistics
        assert (stats.count, stats.missing_count, stats.distinct_count) == (8, 1, 7)
        assert (stats.minimum, stats.maximum) == (-inf, inf)
        assert np.isnan(stats.mean) and np.isnan(stats.std)
        uri = str(column_uri("titanic", "train", "Fare"))
        assert np.array_equal(
            governor.storage.embeddings.get("column", uri), scratch.storage.embeddings.get("column", uri)
        )
        governor.save(tmp_path / "lake")
        reopened = KGGovernor.open(tmp_path / "lake")
        assert serialize_nquads(reopened.storage.graph) == serialize_nquads(scratch.storage.graph)
        reopened.close()

    def test_refresh_is_idempotent(self):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        table = make_lake(age_shift=2).table("titanic", "train")
        governor.refresh_table(table)
        first = serialize_nquads(governor.storage.graph)
        governor.refresh_table(make_lake(age_shift=2).table("titanic", "train"))
        assert serialize_nquads(governor.storage.graph) == first

    def test_refresh_unknown_table_is_plain_add(self):
        governor = KGGovernor()
        report = governor.refresh_table(
            make_lake().table("heart", "heart"), dataset_name="heart"
        )
        assert report.refreshed_tables == []
        assert report.num_tables_profiled == 1

    def test_retract_table_removes_all_footprint(self):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        assert governor.retract_table("titanic", "train")
        node = table_uri("titanic", "train")
        assert not list(governor.storage.graph.match(subject=node))
        assert not list(governor.storage.graph.match(obj=node))
        assert governor.table_profile("titanic", "train") is None
        assert not governor.retract_table("titanic", "train")

    def test_refresh_of_a_datasets_only_table_matches_scratch(self):
        """Retraction drops the emptied dataset node; the re-add restores it."""
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        report = governor.refresh_table(make_lake().table("heart", "heart"), dataset_name="heart")
        assert report.refreshed_tables == ["heart/heart"]
        scratch = KGGovernor()
        scratch.add_data_lake(make_lake())
        assert serialize_nquads(governor.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )

    def test_forced_refresh_of_an_unchanged_table_changes_no_row(self):
        governor = KGGovernor()
        store = governor.storage.graph
        store.enable_delta_log()
        governor.add_data_lake(make_lake())
        before, terms = serialize_nquads(store), dictionary_rows(store)
        version, commit = store.version, store.commit_version
        report = governor.refresh_table(make_lake().table("titanic", "train"))
        assert report.refreshed_tables == ["titanic/train"]
        assert store.delta_log_since(commit) == [(commit + 1, [])]  # one commit, no row
        assert store.version == version
        assert serialize_nquads(store) == before
        assert dictionary_rows(store) == terms

    def test_a_score_only_change_swaps_only_the_certainty_literals(self):
        """``t1.amount`` keeps its count, distinct count, min, max, mean and
        std; only its values' embedding, and so its similarity scores, move.
        The edges and their quoted triples stay under their ids, and each
        changed score is one literal deleted and one inserted."""
        region = ["north", "south", "east", "west"] * 2

        def score_lake(amount) -> DataLake:
            lake = DataLake("scores")
            lake.add_table("ds", Table.from_dict("t1", {"amount": amount, "region": region}))
            lake.add_table("ds", Table.from_dict("t2", {"amount": [11, 21, 31, 41, 51, 61, 71, 81], "region": region}))
            lake.add_table("ds", Table.from_dict("t3", {"amount": [12, 19, 33, 38, 52, 58, 72, 79], "zone": region}))
            return lake

        moved = [10, 19, 30, 41, 50, 63, 67, 80]  # same sum and sum of squares as below
        governor = KGGovernor()
        store = governor.storage.graph
        store.enable_delta_log()
        governor.add_data_lake(score_lake([10, 20, 30, 40, 50, 60, 70, 80]))
        certainty = store.dictionary.lookup(LiDSOntology.withCertainty)
        index = store.backend.get_index(DATASET_GRAPH)
        unscored = {row for row in index.triples if row[1] != certainty}
        commit = store.commit_version
        governor.refresh_table(score_lake(moved).table("ds", "t1"))
        [(_, ops)] = store.delta_log_since(commit)
        removed = [row for kind, _, row in ops if kind == "remove"]
        added = [row for kind, _, row in ops if kind == "add"]
        assert ops == [("remove", DATASET_GRAPH, row) for row in removed] + [("add", DATASET_GRAPH, row) for row in added]
        assert removed and all(row[1] == certainty for row in removed + added)
        assert sorted(row[0] for row in removed) == sorted(row[0] for row in added)
        assert len({row[0] for row in removed}) == len(removed)  # one swap per score
        assert {row for row in index.triples if row[1] != certainty} == unscored
        scratch = KGGovernor()
        scratch.add_data_lake(score_lake(moved))
        assert serialize_nquads(store) == serialize_nquads(scratch.storage.graph)

    def test_refresh_persists_through_save_reopen(self, tmp_path):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.refresh_table(make_lake(age_shift=4).table("titanic", "train"))
        directory = tmp_path / "lake"
        governor.save(directory)

        reopened = KGGovernor.open(directory)
        scratch = KGGovernor()
        scratch.add_data_lake(make_lake(age_shift=4))
        assert serialize_nquads(reopened.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )
        reopened.close()


# --------------------------------------------------------------------------
# Embedding store retraction + disk round trip
# --------------------------------------------------------------------------
class TestEmbeddingStorePersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        store = EmbeddingStore()
        store.put_many(
            "column", [(f"col{i}", rng.normal(size=24)) for i in range(20)]
        )
        store.put_many("table", [(f"tab{i}", rng.normal(size=48)) for i in range(5)])
        path = store.save(tmp_path / "embeddings.npz")

        loaded = EmbeddingStore.load(path)
        assert loaded.count() == store.count()
        for namespace in ("column", "table"):
            assert loaded.keys(namespace) == store.keys(namespace)
            for key in store.keys(namespace):
                np.testing.assert_array_equal(
                    loaded.get(namespace, key), store.get(namespace, key)
                )
        query = rng.normal(size=24)
        assert loaded.search("column", query, k=5) == store.search("column", query, k=5)

    def test_save_load_empty(self, tmp_path):
        path = EmbeddingStore().save(tmp_path / "empty.npz")
        assert EmbeddingStore.load(path).count() == 0

    def test_remove(self):
        store = EmbeddingStore()
        store.put("column", "a", np.ones(4))
        store.put("column", "b", np.array([1.0, 0.0, 0.0, 0.0]))
        assert store.remove("column", "a")
        assert not store.remove("column", "a")
        assert store.get("column", "a") is None
        assert [key for key, _ in store.search("column", np.ones(4), k=5)] == ["b"]


class TestFlatIndexRemove:
    def test_swap_remove_keeps_search_exact(self):
        rng = np.random.default_rng(11)
        index = FlatIndex(8)
        vectors = {f"k{i}": rng.normal(size=8) for i in range(30)}
        for key, vector in vectors.items():
            index.add(key, vector)
        index.search(rng.normal(size=8))  # materialize the matrix
        assert index.remove("k7")
        assert not index.remove("k7")
        assert "k7" not in index
        assert len(index) == 29
        query = vectors["k13"]
        assert index.search(query, k=1)[0][0] == "k13"
        # Every surviving key is still retrievable as its own nearest match.
        for key, vector in vectors.items():
            if key == "k7":
                continue
            assert index.search(vector, k=1)[0][0] == key

    def test_remove_last_and_readd(self):
        index = FlatIndex(2)
        index.add("a", np.array([1.0, 0.0]))
        index.add("b", np.array([0.0, 1.0]))
        assert index.remove("b")
        index.add("c", np.array([0.0, 1.0]))
        assert sorted(index.keys()) == ["a", "c"]
        assert index.search(np.array([0.0, 1.0]), k=1)[0][0] == "c"


# --------------------------------------------------------------------------
# HNSW construction rework
# --------------------------------------------------------------------------
class TestHNSWConstruction:
    def test_recall_agreement_with_flat_index(self):
        rng = np.random.default_rng(5)
        dimensions, count = 16, 250
        # Clustered data: what real column-embedding groups look like.
        centers = rng.normal(size=(10, dimensions))
        vectors = np.concatenate(
            [center + 0.15 * rng.normal(size=(count // 10, dimensions)) for center in centers]
        )
        flat = FlatIndex(dimensions)
        hnsw = HNSWIndex(dimensions, m=8, ef_search=64, ef_construction=64)
        for position, vector in enumerate(vectors):
            flat.add(str(position), vector)
            hnsw.add(str(position), vector)

        recalls = []
        for query in rng.normal(size=(20, dimensions)) + centers[rng.integers(0, 10, 20)]:
            exact = {key for key, _ in flat.search(query, k=10)}
            approximate = {key for key, _ in hnsw.search(query, k=10)}
            recalls.append(len(exact & approximate) / len(exact))
        assert float(np.mean(recalls)) >= 0.9, recalls

    def test_insert_probes_sublinear(self):
        """Construction must not touch every stored vector per insert."""
        rng = np.random.default_rng(9)
        hnsw = HNSWIndex(8, m=4, ef_construction=16)
        probes = {"count": 0}
        original = HNSWIndex._beam_search

        def counting_beam_search(self, query, ef):
            result = original(self, query, ef)
            probes["count"] += len(result)
            return result

        HNSWIndex._beam_search = counting_beam_search
        try:
            for position in range(200):
                hnsw.add(str(position), rng.normal(size=8))
        finally:
            HNSWIndex._beam_search = original
        # The seed implementation scored ~n/2 * n ≈ 20k pairs; beam search
        # returns at most ef results per insert.
        assert probes["count"] <= 200 * 16

    def test_duplicate_vectors_ok(self):
        hnsw = HNSWIndex(4, m=2)
        for position in range(10):
            hnsw.add(str(position), np.array([1.0, 0.0, 0.0, 0.0]))
        results = hnsw.search(np.array([1.0, 0.0, 0.0, 0.0]), k=3)
        assert len(results) == 3
        assert all(score == pytest.approx(1.0) for _, score in results)


# --------------------------------------------------------------------------
# Pipeline abstraction persistence
# --------------------------------------------------------------------------
#: ``(v1, v2)`` sources of one pipeline: v2 changes v1 and drops its
#: ``sklearn.svm`` import.  ``tuple-nan`` calls with a tuple argument and a
#: NaN documentation default (``SimpleImputer(missing_values=nan)``).
CHANGED_SOURCES = {
    "plain": (
        "import pandas as pd\nfrom sklearn.svm import SVC\nclf = SVC()\nclf.fit([[1]], [1])\n",
        "import pandas as pd\ndf = pd.read_csv('x.csv')\n",
    ),
    "tuple-nan": (
        "import pandas as pd\n"
        "import numpy as np\n"
        "from sklearn.impute import SimpleImputer\n"
        "from sklearn.svm import SVC\n"
        "df = pd.read_csv('titanic/train.csv', usecols=('Age', 'Fare'))\n"
        "weights = np.zeros((3, 2))\n"
        "imputer = SimpleImputer(strategy='median')\n"
        "df['Age'] = imputer.fit_transform(df['Age'])\n"
        "clf = SVC(C=0.5)\n"
        "clf.fit(df, weights)\n",
        "import pandas as pd\n"
        "import numpy as np\n"
        "from sklearn.impute import SimpleImputer\n"
        "df = pd.read_csv('titanic/train.csv', usecols=('Age', 'Fare'))\n"
        "weights = np.zeros((3, 2))\n"
        "imputer = SimpleImputer(strategy='median')\n"
        "df['Age'] = imputer.fit_transform(df['Age'])\n",
    ),
}


def format_1_statement(statement) -> dict:
    """A statement as a format-1 ``pipelines.json`` spelled it (argument
    values as their ``repr``)."""

    def spelled(values: dict) -> dict:
        return {name: repr(value) for name, value in values.items()}

    return {
        "index": statement.index,
        "text": statement.text,
        "control_flow": statement.control_flow,
        "calls": [
            {
                "full_name": call.full_name,
                "library": call.library,
                "positional_arguments": [repr(value) for value in call.positional_arguments],
                "keyword_arguments": spelled(call.keyword_arguments),
                "parameter_names": spelled(call.parameter_names),
                "default_parameters": spelled(call.default_parameters),
                "return_type": call.return_type,
            }
            for call in statement.calls
        ],
        "defined_variables": sorted(statement.defined_variables),
        "used_variables": sorted(statement.used_variables),
        "next_statement": statement.next_statement,
        "data_flow_next": list(statement.data_flow_next),
        "dataset_reads": list(statement.dataset_reads),
        "column_reads": list(statement.column_reads),
    }


class TestPipelinePersistence:
    def _scripts(self, source):
        from repro.pipelines.abstraction import PipelineScript

        return [
            PipelineScript(
                "titanic_p1", source, dataset_name="titanic", votes=10, task="classification"
            )
        ]

    def test_abstractions_round_trip_through_save_open(
        self, tmp_path, example_pipeline_source
    ):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines(self._scripts(example_pipeline_source))
        directory = tmp_path / "lake"
        governor.save(directory)

        reopened = KGGovernor.open(directory)
        assert len(reopened.abstractions) == 1
        original = governor.abstractions[0]
        restored = reopened.abstractions[0]
        assert restored.pipeline_id == original.pipeline_id
        assert restored.script.source_code == original.script.source_code
        assert restored.libraries_used == original.libraries_used
        assert restored.calls_used == original.calls_used
        assert restored.predicted_table_reads == original.predicted_table_reads
        # The saving process and the reopened one hold the same pipeline
        # state: the statements went into the named graph and nowhere else.
        assert original.statements == [] and restored.statements == []
        assert restored.to_dict() == original.to_dict()
        assert (
            reopened.abstractor.library_hierarchy_edges()
            == governor.abstractor.library_hierarchy_edges()
        )
        reopened.close()

    def test_saved_abstractions_hold_only_what_a_reopen_reads(
        self, tmp_path, example_pipeline_source
    ):
        governor = KGGovernor()
        governor.add_pipelines(self._scripts(example_pipeline_source))
        governor.save(tmp_path / "lake")
        payload = json.loads((tmp_path / "lake" / "pipelines.json").read_text())
        assert set(payload) == {"format", "abstractions", "library_hierarchy"}
        assert payload["format"] == 2
        assert [set(entry) for entry in payload["abstractions"]] == [
            {
                "script",
                "libraries_used",
                "calls_used",
                "predicted_table_reads",
                "predicted_column_reads",
            }
        ]

    def test_unchanged_pipeline_readd_is_skipped_after_reopen(
        self, tmp_path, example_pipeline_source
    ):
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines(self._scripts(example_pipeline_source))
        directory = tmp_path / "lake"
        governor.save(directory)
        before = serialize_nquads(governor.storage.graph)

        reopened = KGGovernor.open(directory)
        report = reopened.add_pipelines(self._scripts(example_pipeline_source))
        assert report.num_pipelines_abstracted == 0  # skipped, not re-abstracted
        assert serialize_nquads(reopened.storage.graph) == before
        reopened.close()

    def test_changed_pipeline_source_is_refreshed(self, example_pipeline_source):
        from repro.pipelines.abstraction import PipelineScript

        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines(self._scripts(example_pipeline_source))
        changed = example_pipeline_source + "\nprint('v2')\n"
        report = governor.add_pipelines(
            [PipelineScript("titanic_p1", changed, dataset_name="titanic")]
        )
        assert report.num_pipelines_abstracted == 1
        assert len(governor.abstractions) == 1
        assert governor.abstractions[0].script.source_code == changed

        # The graph equals abstracting the changed script from scratch.
        scratch = KGGovernor()
        scratch.add_data_lake(make_lake())
        scratch.add_pipelines(
            [PipelineScript("titanic_p1", changed, dataset_name="titanic")]
        )
        assert serialize_nquads(governor.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )

    def test_changed_imports_drop_stale_library_triples(self):
        """A re-add whose new source stops using a library must not leave
        that library's hierarchy triples behind (the library graph is shared
        across pipelines and is rebuilt from the surviving abstractions)."""
        from repro.pipelines.abstraction import PipelineScript

        v1 = "import pandas as pd\nfrom sklearn.svm import SVC\nclf = SVC()\nclf.fit([[1]], [1])\n"
        v2 = "import pandas as pd\ndf = pd.read_csv('x.csv')\n"
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines([PipelineScript("p1", v1, dataset_name="titanic")])
        governor.add_pipelines([PipelineScript("p1", v2, dataset_name="titanic")])

        scratch = KGGovernor()
        scratch.add_data_lake(make_lake())
        scratch.add_pipelines([PipelineScript("p1", v2, dataset_name="titanic")])
        assert serialize_nquads(governor.storage.graph) == serialize_nquads(
            scratch.storage.graph
        )

    @pytest.mark.parametrize("sources", CHANGED_SOURCES.values(), ids=list(CHANGED_SOURCES))
    def test_changed_source_readd_after_reopen_matches_a_fresh_govern(self, tmp_path, sources):
        from repro.pipelines.abstraction import PipelineScript

        v1, _ = sources
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines([PipelineScript("p1", v1, dataset_name="titanic")])
        governor.save(tmp_path / "lake")
        reopened = KGGovernor.open(tmp_path / "lake")
        changed = v1 + "df = df.dropna(axis=0, subset=('Fare',))\n"
        report = reopened.add_pipelines([PipelineScript("p1", changed, dataset_name="titanic")])
        assert report.num_pipelines_abstracted == 1

        scratch = KGGovernor()
        scratch.add_data_lake(make_lake())
        scratch.add_pipelines([PipelineScript("p1", changed, dataset_name="titanic")])
        assert serialize_nquads(reopened.storage.graph) == serialize_nquads(scratch.storage.graph)
        reopened.close()

    @pytest.mark.parametrize("sources", CHANGED_SOURCES.values(), ids=list(CHANGED_SOURCES))
    def test_dropped_import_after_reopen_leaves_no_stale_library_triples(self, tmp_path, sources):
        from repro.kg.ontology import library_uri
        from repro.pipelines.abstraction import PipelineScript

        v1, v2 = sources
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines([PipelineScript("p1", v1, dataset_name="titanic")])
        governor.save(tmp_path / "lake")
        reopened = KGGovernor.open(tmp_path / "lake")
        reopened.add_pipelines([PipelineScript("p1", v2, dataset_name="titanic")])

        scratch = KGGovernor()
        scratch.add_data_lake(make_lake())
        scratch.add_pipelines([PipelineScript("p1", v2, dataset_name="titanic")])
        assert serialize_nquads(reopened.storage.graph) == serialize_nquads(scratch.storage.graph)
        dropped = {library_uri("sklearn.svm"), library_uri("sklearn.svm.SVC")}
        graph = reopened.storage.graph
        assert not [row for row in graph.triples() if dropped & {row[0], row[2]}]
        reopened.close()

    def test_the_tuple_nan_script_calls_with_a_tuple_and_a_nan(self):
        """Precondition of the ``tuple-nan`` cases above: its calls' argument
        values hold a tuple and a NaN (a documentation default)."""
        import math

        from repro.pipelines.abstraction import PipelineAbstractor, PipelineScript

        abstraction = PipelineAbstractor().abstract_script(
            PipelineScript("p1", CHANGED_SOURCES["tuple-nan"][0])
        )
        values = [
            value
            for statement in abstraction.statements
            for call in statement.calls
            for value in list(call.positional_arguments) + list(call.all_parameters().values())
        ]
        assert any(isinstance(value, tuple) for value in values)
        assert any(isinstance(value, float) and math.isnan(value) for value in values)

    def test_a_format_1_file_opens_and_is_rewritten_as_format_2(
        self, tmp_path, example_pipeline_source
    ):
        """A ``pipelines.json`` written before format 2 carries each
        abstraction's ``statements``; it opens with them ignored, an
        unchanged re-add changes nothing, and the next save drops them."""
        from repro.pipelines.abstraction import PipelineAbstractor

        scripts = self._scripts(example_pipeline_source)
        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.add_pipelines(scripts)
        directory = tmp_path / "lake"
        governor.save(directory)
        path = directory / "pipelines.json"
        payload = json.loads(path.read_text())
        payload["format"] = 1
        for entry, script in zip(payload["abstractions"], scripts):
            statements = PipelineAbstractor().abstract_script(script).statements
            assert statements
            entry["statements"] = [format_1_statement(statement) for statement in statements]
        path.write_text(json.dumps(payload))
        before = serialize_nquads(governor.storage.graph)

        reopened = KGGovernor.open(directory)
        assert [a.to_dict() for a in reopened.abstractions] == [
            a.to_dict() for a in governor.abstractions
        ]
        assert reopened.add_pipelines(scripts).num_pipelines_abstracted == 0
        assert serialize_nquads(reopened.storage.graph) == before
        reopened.save(directory)
        rewritten = json.loads(path.read_text())
        assert rewritten["format"] == 2
        assert not [entry for entry in rewritten["abstractions"] if "statements" in entry]
        reopened.close()

    @pytest.mark.parametrize("name", ["profiles.json", "pipelines.json"])
    def test_a_file_newer_than_the_code_is_refused_by_name(self, tmp_path, name):
        from repro.kg import SnapshotFormatError

        governor = KGGovernor()
        governor.add_data_lake(make_lake())
        governor.save(tmp_path / "lake")
        path = tmp_path / "lake" / name
        payload = json.loads(path.read_text())
        payload["format"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotFormatError, match=rf"{name} has format 3; .* up to 2") as caught:
            KGGovernor.open(tmp_path / "lake")
        assert (caught.value.path, caught.value.found, caught.value.supported) == (path, 3, 2)


# --------------------------------------------------------------------------
# Byte-identity across interpreters
# --------------------------------------------------------------------------
MIGRATION_CRASH_PROBE = """
import os, sys
from repro.rdf import SqliteBackend

class CrashingBackend(SqliteBackend):
    # Dies before the n-th sqlite statement of the layout migration.
    left = None

    def _migrate_layout(self):
        CrashingBackend.left = int(sys.argv[2])
        return super()._migrate_layout()

    def _tick(self):
        if CrashingBackend.left is not None:
            CrashingBackend.left -= 1
            if CrashingBackend.left == 0:
                os._exit(17)

    def _execute_retry(self, sql, params=()):
        self._tick()
        return super()._execute_retry(sql, params)

    def _executemany_retry(self, sql, rows):
        self._tick()
        return super()._executemany_retry(sql, rows)

CrashingBackend(sys.argv[1])
os._exit(0)
"""

HASH_SEED_PROBE = """
import hashlib, json, sqlite3, sys
from pathlib import Path
import numpy as np
from repro.datagen import generate_discovery_benchmark, generate_pipeline_corpus
from repro.kg import KGGovernor

lake = generate_discovery_benchmark("tus_small", seed=5, base_tables=2, partitions=4, rows=20).lake
governor = KGGovernor()
governor.bootstrap(lake=lake, scripts=generate_pipeline_corpus(lake, pipelines_per_table=3, seed=3))
directory = governor.save(sys.argv[1])
dictionary = governor.storage.graph.dictionary

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

print(digest(repr(dictionary.export_rows(1))))
print(digest(repr(dictionary.export_quoted_parts(1))))
dump = sqlite3.connect(directory / "graph.sqlite3").iterdump()
print(digest("\\n".join(line for line in dump if "store_uid" not in line)))
# Every other snapshot file: its JSON without the random lineage uid, an
# archive member by member (the zip stamps its members with the clock).
for path in sorted(Path(directory).iterdir()):
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        payload.pop("store_uid", None)
        print(path.name, digest(json.dumps(payload, sort_keys=True)))
    elif path.suffix == ".npz":
        with np.load(path) as archive:
            for name in sorted(archive.files):
                array = archive[name]
                print(path.name, name, digest(repr((array.dtype.str, array.shape)) + array.tobytes().hex()))
"""


def test_term_ids_and_sqlite_dump_do_not_depend_on_the_hash_seed(tmp_path):
    """Governing the same 8 tables and 24 pipelines under two ``PYTHONHASHSEED``
    values interns the same terms (and quoted triples) under the same ids
    and writes the same snapshot: the same sqlite rows, the same JSON files
    and the same archive members (the ``store_uid`` is random by design),
    so a saved lake's size, the store ratio, does not move with the seed."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    source = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("1", "2"):
        finished = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE, str(tmp_path / seed)],
            env={**os.environ, "PYTHONPATH": str(source), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert finished.returncode == 0, finished.stderr
        outputs.append(finished.stdout)
    (rows_1, quoted_1, dump_1, *files_1), (rows_2, quoted_2, dump_2, *files_2) = (
        out.splitlines() for out in outputs
    )
    assert rows_1 == rows_2, "dictionary.export_rows(1) differs across hash seeds"
    assert quoted_1 == quoted_2, "dictionary.export_quoted_parts(1) differs across hash seeds"
    assert dump_1 == dump_2, "the sqlite dump differs across hash seeds"
    names = [line.rsplit(" ", 1)[0] for line in files_1]
    assert {name.split()[0] for name in names} == {
        "delta.json", "embeddings.npz", "manifest.json", "pipelines.json", "profiles.json"
    }
    assert "embeddings.npz label_vectors" in names
    for line_1, line_2 in zip(files_1, files_2, strict=True):
        assert line_1 == line_2, f"{line_1.rsplit(' ', 1)[0]} differs across hash seeds"
