"""Integration tests for the KGLiDS interfaces (Section 5 operations)."""

import random
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import interfaces_oracle
from repro.interfaces import KGLiDS, LiDSClient
from repro.kg import KGGovernor
from repro.kg.ontology import DATASET_GRAPH, LiDSOntology, dataset_uri, table_uri
from repro.kg.storage import KGLiDSStorage
from repro.pipelines.abstraction import PipelineScript
from repro.rdf import RDF, Literal, QuadStore, QuotedTriple, URIRef
from repro.sparql.parser import SPARQLSyntaxError
from repro.tabular import Table


class TestDiscoveryInterfaces:
    def test_search_keywords_conjunctive_and_disjunctive(self, bootstrapped_platform, tiny_benchmark):
        lake_domains = {dataset.name.split("_")[0] for dataset in tiny_benchmark.lake.datasets}
        domain = sorted(lake_domains)[0]
        result = bootstrapped_platform.search_keywords([[domain]])
        assert result.num_rows > 0
        assert "table" in result.column_names
        # A nonsense conjunctive group combined with a valid disjunct still matches.
        result_or = bootstrapped_platform.search_keywords([["zzz", "qqq"], domain])
        assert result_or.num_rows == result.num_rows
        assert bootstrapped_platform.search_keywords([["zzz_not_there"]]).num_rows == 0

    def test_unionable_tables_rank_ground_truth_first(self, bootstrapped_platform, tiny_benchmark):
        query = tiny_benchmark.query_tables[0]
        result = bootstrapped_platform.get_unionable_tables(query[0], query[1], k=5)
        assert result.num_rows > 0
        top_dataset = result.column("dataset")[0]
        top_table = result.column("table")[0]
        assert (top_dataset, top_table) in tiny_benchmark.ground_truth[query]
        scores = list(result.column("score"))
        assert scores == sorted(scores, reverse=True)

    def test_find_unionable_columns(self, bootstrapped_platform, tiny_benchmark):
        query = tiny_benchmark.query_tables[0]
        partner = next(iter(tiny_benchmark.ground_truth[query]))
        result = bootstrapped_platform.find_unionable_columns(query[0], query[1], partner[0], partner[1])
        assert result.num_rows > 0
        assert set(result.column_names) == {"column_a", "column_b", "similarity", "score"}

    def test_joinable_tables_and_paths(self, bootstrapped_platform, tiny_benchmark):
        query = tiny_benchmark.query_tables[0]
        joinable = bootstrapped_platform.get_joinable_tables(query[0], query[1], k=5)
        paths = bootstrapped_platform.get_path_to_table(query[0], query[1], hops=2)
        assert set(paths.column_names) == {"target_table", "hops", "path"}
        if joinable.num_rows:
            assert paths.num_rows > 0
            target = (joinable.column("dataset")[0], joinable.column("table")[0])
            shortest = bootstrapped_platform.get_shortest_path_between_tables(
                query[0], query[1], target[0], target[1]
            )
            assert shortest is not None and len(shortest) >= 2

    def test_shortest_path_missing_table(self, bootstrapped_platform):
        assert (
            bootstrapped_platform.get_shortest_path_between_tables("no", "no", "no2", "no2") is None
        )


def join_lake(edges, tables, order_seed=None) -> KGLiDS:
    """A platform whose dataset graph holds ``tables`` named tables ``t<i>``
    (two per dataset) and the given ``joinableWith`` edges, inserted in a
    shuffled order when ``order_seed`` is given."""
    quads = []
    for number in range(tables):
        node = table_uri(f"d{number // 2}", f"t{number}")
        quads.append((node, RDF.type, LiDSOntology.Table))
        # Names repeat across datasets, so rows can tie on (hops, target_table).
        quads.append((node, LiDSOntology.hasName, Literal(f"t{number % 3}")))
    for first, second in edges:
        quads.append(
            (
                table_uri(f"d{first // 2}", f"t{first}"),
                LiDSOntology.joinableWith,
                table_uri(f"d{second // 2}", f"t{second}"),
            )
        )
    if order_seed is not None:
        random.Random(order_seed).shuffle(quads)
    platform = KGLiDS(KGGovernor())
    for quad in quads:
        platform.storage.graph.add(*quad, graph=DATASET_GRAPH)
    return platform


def table_rows(table: Table):
    return list(zip(*(table.column(name) for name in table.column_names)))


def row_dicts(table: Table):
    return [dict(zip(table.column_names, row)) for row in table_rows(table)]


RELATED_COLUMNS = ["dataset", "table", "table_uri", "score"]
LIBRARY_COLUMNS = ["library_name", "num_pipelines"]
RELATIONS = ("unionableWith", "joinableWith")


def related_call(platform, relation):
    return platform.get_unionable_tables if relation == "unionableWith" else platform.get_joinable_tables


def assert_discovery_matches_oracle(platform, tables, ks=(0, 1, 3, 10, 10_000), tasks=(None, "classification")):
    """Similarity and library answers equal the per-call SPARQL, row for row
    in order; returns how many similarity answers hold a tied score."""
    tied = 0
    for dataset, table in tables:
        for relation in RELATIONS:
            for k in ks:
                answer = related_call(platform, relation)(dataset, table, k)
                assert answer.column_names == RELATED_COLUMNS
                expected = interfaces_oracle.related_tables(platform.storage, dataset, table, relation, k)
                assert row_dicts(answer) == expected, (dataset, table, relation, k)
            scores = list(answer.column("score"))
            tied += any(first == second for first, second in zip(scores, scores[1:]))
    for task in tasks:
        for k in ks:
            answer = platform.get_top_used_libraries(k, task=task)
            assert answer.column_names == LIBRARY_COLUMNS
            assert row_dicts(answer) == interfaces_oracle.top_libraries(platform.storage, k, task), (task, k)
    return tied


@pytest.fixture(scope="module", params=["memory", "sqlite"])
def governed_lake(request, tmp_path_factory):
    """A 24-table lake (partitions of one base table tie on score) with 24
    pipelines, live in memory or saved and reopened from sqlite."""
    from repro.datagen import generate_discovery_benchmark, generate_pipeline_corpus

    lake = generate_discovery_benchmark("tus_small", seed=0, base_tables=6, partitions=4, rows=40).lake
    governor = KGGovernor()
    governor.bootstrap(lake=lake, scripts=generate_pipeline_corpus(lake, pipelines_per_table=1, seed=3))
    if request.param == "sqlite":
        directory = tmp_path_factory.mktemp("governed")
        governor.save(directory)
        governor.close()
        governor = KGGovernor.open(directory)
    yield KGLiDS(governor), [(table.dataset, table.name) for table in lake.tables()]
    governor.close()


class TestSimilarityAndLibraryCallsAgainstOracle:
    """``get_unionable_tables`` / ``get_joinable_tables`` /
    ``get_top_used_libraries`` read snapshot views; the oracle runs the SPARQL
    each call used to run, with a total ORDER BY."""

    def test_every_table_both_relations_every_k(self, governed_lake):
        platform, tables = governed_lake
        assert len(tables) == 24
        tied = assert_discovery_matches_oracle(platform, tables, tasks=())
        assert tied >= len(tables), "the lake must exercise the URI tie-break"

    @pytest.mark.parametrize("task", [None, "classification", "eda", 'no "such" task\\'])
    def test_library_calls(self, governed_lake, task):
        platform, _ = governed_lake
        assert_discovery_matches_oracle(platform, (), ks=(0, 1, 2, 3, 5, 10, 10_000), tasks=(task,))
        if task is None:
            for k in (1, 3, 10):
                top = platform.get_top_k_library_used(k)
                assert row_dicts(top) == row_dicts(platform.get_top_used_libraries(k))

    def test_library_rollup_follows_commits_and_rollbacks(self, governed_lake):
        """The cross-graph roll-up is built once per store version: a use
        read inside a batch that rolls back is gone after it, also when a
        commit brings the store back to that version with other uses."""
        platform, _ = governed_lake
        store = platform.storage.graph
        ontology, resource = LiDSOntology, "http://kglids.org/resource/rollup-test/"
        graph = URIRef(resource + "graph")

        def uses(name, task):
            library, pipeline, statement = (URIRef(resource + part + name) for part in ("library/", "pipeline/", "s/"))
            return [
                (statement, ontology.callsLibrary, library),
                (statement, ontology.isPartOf, pipeline),
                (pipeline, ontology.hasTaskType, Literal(task)),
                (library, ontology.hasName, Literal(name)),
            ]

        def names():
            assert_discovery_matches_oracle(platform, (), ks=(3, 10_000))
            return set(platform.get_top_used_libraries(10_000).column("library_name"))

        def rolled_back():
            with pytest.raises(RuntimeError, match="roll back"):
                with store.write_batch():
                    store.add_many(uses("zz_rolled_back", "classification"), graph)
                    assert "zz_rolled_back" in names()
                    raise RuntimeError("roll back")
            return store.version + 4

        assert not names() & {"zz_rolled_back", "zz_committed"}
        rolled_back()
        assert "zz_rolled_back" not in names()
        inside = rolled_back()
        store.add_many(uses("zz_committed", "regression"), graph)
        assert store.version == inside
        assert "zz_committed" in names() and "zz_rolled_back" not in names()
        store.remove_graph(graph)
        assert "zz_committed" not in names()

    def test_absent_task_is_an_empty_two_column_table(self, governed_lake):
        platform, _ = governed_lake
        answer = platform.get_top_used_libraries(10, task="no such task")
        assert answer.column_names == LIBRARY_COLUMNS and answer.num_rows == 0

    @pytest.mark.parametrize("dataset, table", [("no_such_dataset", "t"), (None, "no_such_table")])
    def test_unknown_table_is_an_empty_four_column_table(self, governed_lake, dataset, table):
        platform, tables = governed_lake
        dataset = dataset or tables[0][0]
        for relation in RELATIONS:
            answer = related_call(platform, relation)(dataset, table, 10)
            assert answer.column_names == RELATED_COLUMNS and answer.num_rows == 0
            assert interfaces_oracle.related_tables(platform.storage, dataset, table, relation, 10) == []

    def test_concurrent_first_calls_after_a_commit(self, governed_lake):
        """Readers racing to fill one snapshot's per-anchor memo (the server is
        threaded) each get the single-threaded answer."""
        import sys
        import threading

        platform, tables = governed_lake
        store = platform.storage.graph
        calls = [(relation, dataset, table) for dataset, table in tables for relation in RELATIONS]
        expected = [
            table_rows(related_call(platform, relation)(dataset, table, 10)) for relation, dataset, table in calls
        ]
        marker = (table_uri("zz", "marker"), RDF.type, LiDSOntology.Table)
        store.add(*marker, graph=DATASET_GRAPH)  # a new snapshot, an empty memo
        store.remove(*marker, graph=DATASET_GRAPH)
        answers, errors = [], []

        def read(worker):
            try:
                for relation, dataset, table in calls if worker % 2 else calls[::-1]:
                    answer = table_rows(related_call(platform, relation)(dataset, table, 10))
                    answers.append(((relation, dataset, table), answer))
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(worker,)) for worker in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers) and not errors
        assert len(answers) == len(workers) * len(calls)
        for call, answer in answers:
            assert answer == expected[calls.index(call)]

    def test_tied_library_counts_are_cut_by_name(self, governed_lake):
        platform, _ = governed_lake
        everything = table_rows(platform.get_top_used_libraries(10_000))
        counts = [count for _, count in everything]
        cuts = [k for k in range(1, len(counts)) if counts[k - 1] == counts[k]]
        assert cuts, "the corpus must tie on a count"
        for k in cuts:
            cut = platform.get_top_used_libraries(k)
            assert table_rows(cut) == sorted(everything, key=lambda row: (-row[1], row[0]))[:k]
            assert row_dicts(cut) == interfaces_oracle.top_libraries(platform.storage, k)


CONFIGURATIONS = ["memory", "sqlite", "faulted-memory", "faulted-sqlite"]
#: Names repeat across tables and datasets; a number ranks before a string.
NAMES = [Literal("a"), Literal("b"), Literal("B"), Literal(7)]
SCORES = [0.25, 0.5, 1.0]


def platform_over(store) -> KGLiDS:
    return KGLiDS(KGGovernor(storage=KGLiDSStorage(graph=store)))


def assert_rankings_match_oracle(platform, anchors, ks=(0, 1, 2, 5, 10_000)):
    """Every ranking answer equals the per-call SPARQL, row for row in order;
    returns them (at the largest ``k``) for further checks."""
    answers = {}
    for dataset, table in anchors:
        for relation in RELATIONS:
            for k in ks:
                answer = related_call(platform, relation)(dataset, table, k)
                assert answer.column_names == RELATED_COLUMNS
                expected = interfaces_oracle.related_tables(platform.storage, dataset, table, relation, k)
                assert row_dicts(answer) == expected, (dataset, table, relation, k)
            answers[dataset, table, relation] = row_dicts(answer)
    return answers


def hand_lake_rows(tables, dataset_names, edges):
    """Dataset-graph rows of a hand-made lake: table ``i`` is
    ``table_uri("d<i % 2>", "t<i>")`` with the given names and datasets,
    dataset ``j`` is ``dataset_uri("ds<j>")`` with the given names, and each
    edge is a ``withCertainty``-annotated ``relation`` between two tables."""
    ontology = LiDSOntology
    node = [table_uri(f"d{number % 2}", f"t{number}") for number in range(len(tables))]
    rows = []
    for number, (names, datasets) in enumerate(tables):
        rows.append((node[number], RDF.type, ontology.Table))
        rows += [(node[number], ontology.hasName, name) for name in names]
        rows += [(node[number], ontology.isPartOf, dataset_uri(f"ds{dataset}")) for dataset in datasets]
    for dataset, names in enumerate(dataset_names):
        rows += [(dataset_uri(f"ds{dataset}"), ontology.hasName, name) for name in names]
    for first, second, relation, score in edges:
        edge = (node[first % len(node)], getattr(ontology, relation), node[second % len(node)])
        rows += [edge, (QuotedTriple(*edge), ontology.withCertainty, Literal(score))]
    return rows, [(f"d{number % 2}", f"t{number}") for number in range(len(tables))]


@pytest.fixture(scope="module")
def small_governed_rows():
    """The dataset graph of a governed 8-table lake (partitions tie on score)."""
    from repro.datagen import generate_discovery_benchmark

    lake = generate_discovery_benchmark("tus_small", seed=1, base_tables=2, partitions=4, rows=30).lake
    governor = KGGovernor()
    governor.add_data_lake(lake)
    rows = [tuple(triple) for triple in governor.storage.graph.triples(graph=DATASET_GRAPH)]
    governor.close()
    return rows, [(table.dataset, table.name) for table in lake.tables()]


def irregular_rows(anchors):
    """Hand rows that make a governed lake irregular: the first table gets a
    second name, the second table's dataset a second name, and the third and
    fourth tables lose their name and their dataset."""
    ontology = LiDSOntology
    first, second, nameless, homeless = (table_uri(*anchor) for anchor in anchors[:4])
    added = [
        (first, ontology.hasName, Literal("a second name")),
        (dataset_uri(anchors[1][0]), ontology.hasName, Literal("another dataset name")),
    ]
    removed = [
        (nameless, ontology.hasName, Literal(anchors[2][1])),
        (homeless, ontology.isPartOf, dataset_uri(anchors[3][0])),
    ]
    return added, removed


def assert_irregular_rows_show(answers, anchors):
    """The irregular rows reach the answers: two rows for the two-named table
    and for the tables of the two-named dataset, none for the nameless and
    homeless tables."""
    rows = [row for ranked in answers.values() for row in ranked]
    uris = [row["table_uri"] for row in rows]
    first, second, nameless, homeless = (str(table_uri(*anchor)) for anchor in anchors[:4])
    assert "a second name" in {row["table"] for row in rows if row["table_uri"] == first}
    assert "another dataset name" in {row["dataset"] for row in rows if row["table_uri"] == second}
    assert nameless not in uris and homeless not in uris
    assert any(len(set(uris[i : i + 2])) == 1 for i in range(len(uris) - 1)), "no table gives two rows"


class TestRankingAgainstOracle:
    """``_RankedNeighbours`` looks neighbours' names up by id; the oracle
    joins them in SPARQL.  Irregular graphs (several names, no name, no
    dataset, tied scores) on every store configuration and on a replica fed
    by delta."""

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    @settings(max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(
        tables=st.lists(
            st.tuples(
                st.lists(st.sampled_from(NAMES), max_size=2, unique=True),
                st.lists(st.integers(0, 2), max_size=2, unique=True),
            ),
            min_size=2,
            max_size=5,
        ),
        dataset_names=st.lists(st.lists(st.sampled_from(NAMES), max_size=2, unique=True), min_size=3, max_size=3),
        edges=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from(RELATIONS), st.sampled_from(SCORES)),
            max_size=16,
        ),
    )
    def test_hand_made_lakes(self, configuration, open_store, tmp_path_factory, tables, dataset_names, edges):
        rows, anchors = hand_lake_rows(tables, dataset_names, edges)
        store = open_store(configuration, tmp_path_factory.mktemp("ranking") / "s.sqlite3")
        try:
            store.add_many(rows, DATASET_GRAPH)
            assert_rankings_match_oracle(platform_over(store), anchors + [("d0", "no_such_table")])
        finally:
            store.close()

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_governed_lake_with_irregular_rows(self, configuration, open_store, tmp_path, small_governed_rows):
        rows, anchors = small_governed_rows
        store = open_store(configuration, tmp_path / "s.sqlite3")
        try:
            store.add_many(rows, DATASET_GRAPH)
            platform = platform_over(store)
            before = assert_rankings_match_oracle(platform, anchors)
            tied = sum(
                any(a["score"] == b["score"] for a, b in zip(ranked, ranked[1:])) for ranked in before.values()
            )
            assert tied >= len(anchors), "the lake must tie on score"
            added, removed = irregular_rows(anchors)
            store.add_many(added, DATASET_GRAPH)
            for row in removed:
                assert store.remove(*row, graph=DATASET_GRAPH)
            assert_irregular_rows_show(assert_rankings_match_oracle(platform, anchors), anchors)
        finally:
            store.close()

    def test_a_ranking_reads_no_subject_bucket(self, small_governed_rows):
        class Unread(dict):
            def _refuse(self, *args):
                raise AssertionError("a ranking read a subject bucket")

            get = __getitem__ = __iter__ = __contains__ = items = values = _refuse

        rows, anchors = small_governed_rows
        platform = platform_over(QuadStore())
        platform.storage.graph.add_many(rows, DATASET_GRAPH)
        expected = [table_rows(platform.get_unionable_tables(*anchor, 10)) for anchor in anchors]
        marker = irregular_rows(anchors)[0][0]
        platform.storage.graph.add(*marker, graph=DATASET_GRAPH)  # a new snapshot, an empty memo
        platform.storage.graph.remove(*marker, graph=DATASET_GRAPH)
        index = platform.storage.graph.backend.get_index(DATASET_GRAPH)
        buckets = index.by_subject
        index.by_subject = Unread(buckets)
        try:
            assert [table_rows(platform.get_unionable_tables(*anchor, 10)) for anchor in anchors] == expected
        finally:
            index.by_subject = buckets

    def test_a_replica_fed_by_delta(self, tmp_path, small_governed_rows):
        """After an add, a retract and a rolled-back batch on the writer, the
        replica's rankings equal the oracle over the replica's store and the
        writer's answers."""
        from repro.serving import LiDSServer, Replica

        rows, anchors = small_governed_rows
        writer_dir = tmp_path / "writer"
        writer_dir.mkdir()
        store = QuadStore.sqlite(writer_dir / "graph.sqlite3")
        governor = KGGovernor(storage=KGLiDSStorage(graph=store))
        store.add_many(rows, DATASET_GRAPH)
        governor.save(writer_dir)
        writer = LiDSClient(governor)
        server = LiDSServer(writer)
        added, removed = irregular_rows(anchors)
        try:
            replica = Replica(server.address, shutil.copytree(writer_dir, tmp_path / "replica"))
            try:

                def synced_answers(changed):
                    assert replica.sync() is changed and replica.commit_version == store.commit_version
                    answers = assert_rankings_match_oracle(replica.client, anchors)
                    assert answers == assert_rankings_match_oracle(writer, anchors, ks=(10_000,))
                    return answers

                synced_answers(False)
                store.add_many(added, DATASET_GRAPH)
                synced_answers(True)
                for row in removed:
                    assert store.remove(*row, graph=DATASET_GRAPH)
                retracted = synced_answers(True)
                assert_irregular_rows_show(retracted, anchors)
                with pytest.raises(RuntimeError, match="roll back"):
                    with store.write_batch():
                        store.remove(*added[0], graph=DATASET_GRAPH)
                        store.add_many(removed, DATASET_GRAPH)
                        raise RuntimeError("roll back")
                assert synced_answers(False) == retracted
                assert replica.stats["full_pulls"] == 0
            finally:
                replica.close()
        finally:
            server.close()
            governor.close()


class TestFindUnionableColumnsAgainstOracle:
    """``find_unionable_columns`` reads by id; the oracle is its term-API
    walk, ordered the same way: ``(-score, column_a, column_b)``."""

    def test_every_anchor_and_its_top_partners(self, governed_lake):
        platform, tables = governed_lake
        store = platform.storage.graph
        tied = 0
        for dataset, table in tables:
            top = platform.get_unionable_tables(dataset, table, 3)
            partners = list(zip(top.column("dataset"), top.column("table"))) + [(dataset, table)]
            for partner in partners:
                answer = platform.find_unionable_columns(dataset, table, *partner)
                assert answer.column_names == ["column_a", "column_b", "similarity", "score"]
                expected = interfaces_oracle.unionable_columns(store, dataset, table, *partner)
                assert row_dicts(answer) == expected, (dataset, table, partner)
                scores = list(answer.column("score"))
                tied += any(first == second for first, second in zip(scores, scores[1:]))
        assert tied >= len(tables), "the lake must tie on score"

    def test_an_unknown_table_is_an_empty_four_column_table(self, governed_lake):
        platform, tables = governed_lake
        unknown, other = (tables[0][0], "no_such_table"), ("no_such_dataset", tables[0][1])
        for first, second in ((unknown, tables[1]), (tables[1], unknown), (other, tables[1])):
            answer = platform.find_unionable_columns(*first, *second)
            assert answer.column_names == ["column_a", "column_b", "similarity", "score"]
            assert answer.num_rows == 0


class TestNegativeK:
    """A negative ``k`` is refused with ``ValueError``, as the oracle's
    ``LIMIT -1`` is (``SPARQLSyntaxError`` is a ``ValueError``)."""

    @pytest.mark.parametrize(
        "method", ["get_unionable_tables", "get_joinable_tables", "get_top_used_libraries", "get_top_k_library_used"]
    )
    def test_a_negative_k_raises_value_error(self, governed_lake, method):
        platform, tables = governed_lake
        call = getattr(platform, method)

        def ask(k):
            return call(*tables[0], k) if method.endswith("_tables") else call(k)

        assert ask(0).num_rows == 0
        for k in (-1, -10_000):
            with pytest.raises(ValueError, match="k must be"):
                ask(k)
        if method == "get_top_used_libraries":
            with pytest.raises(ValueError, match="k must be"):
                call(-1, task="classification")

    def test_the_oracle_refuses_limit_minus_one(self, governed_lake):
        platform, tables = governed_lake
        with pytest.raises(SPARQLSyntaxError):
            interfaces_oracle.related_tables(platform.storage, *tables[0], "unionableWith", -1)
        with pytest.raises(SPARQLSyntaxError):
            interfaces_oracle.top_libraries(platform.storage, -1)


class TestJoinPathsAgainstOracle:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        tables=st.integers(2, 9),
        edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=20),
        hops=st.integers(0, 4),
        order_seed=st.integers(0, 1000),
    )
    def test_random_join_graphs(self, tables, edges, hops, order_seed):
        edges = [(a % tables, b % tables) for a, b in edges]
        platform = join_lake(edges, tables)
        store = platform.storage.graph
        shuffled = join_lake(edges, tables, order_seed)
        for number in range(tables):
            dataset, table = f"d{number // 2}", f"t{number}"
            start = str(table_uri(dataset, table))
            answer = platform.get_path_to_table(dataset, table, hops)
            expected = interfaces_oracle.targets_within(store, start, hops)
            # Same targets at the same distances as the unbounded search ...
            assert sorted(zip(answer.column("hops"), answer.column("target_table"))) == sorted(
                (distance, interfaces_oracle.table_label(store, target))
                for target, distance in expected.items()
            )
            # ... every reported path is a real path of that length from the start ...
            for target, distance, path in table_rows(answer):
                labels = path.split(" -> ")
                assert len(labels) == distance + 1 and labels[-1] == target
                assert labels[0] == interfaces_oracle.table_label(store, start)
                assert interfaces_oracle.is_path(store, labels)
            assert list(answer.column("hops")) == sorted(answer.column("hops"))
            # ... and the answer does not depend on the insertion order.
            assert table_rows(shuffled.get_path_to_table(dataset, table, hops)) == table_rows(answer)
            for other in range(tables):
                target = (f"d{other // 2}", f"t{other}")
                shortest = platform.get_shortest_path_between_tables(dataset, table, *target)
                distance = interfaces_oracle.distances(store, start).get(str(table_uri(*target)))
                if distance is None:
                    assert shortest is None
                else:
                    assert len(shortest) == distance + 1 and interfaces_oracle.is_path(store, shortest)
                assert shuffled.get_shortest_path_between_tables(dataset, table, *target) == shortest

    def test_ties_break_by_uri(self):
        """Two equal-length paths, two targets sharing a name: the smaller
        URI wins the path and leads the tie."""
        # t0 - t1 - t3 and t0 - t2 - t3; t0 and t3 share the name "t0".
        platform = join_lake([(0, 2), (2, 3), (1, 3), (0, 1)], 4)
        answer = platform.get_path_to_table("d0", "t0", 2)
        assert table_rows(answer) == [
            ("t1", 1, "t0 -> t1"),
            ("t2", 1, "t0 -> t2"),
            ("t0", 2, "t0 -> t1 -> t0"),
        ]
        assert platform.get_shortest_path_between_tables("d0", "t0", "d1", "t3") == ["t0", "t1", "t0"]
        assert platform.get_shortest_path_between_tables("d0", "t0", "d0", "t0") == ["t0"]
        assert platform.get_path_to_table("d0", "t0", 0).num_rows == 0
        assert platform.get_path_to_table("nowhere", "t0", 2).num_rows == 0

    def test_governed_lake_matches_oracle(self, bootstrapped_platform, tiny_benchmark):
        store = bootstrapped_platform.storage.graph
        for dataset, table in tiny_benchmark.query_tables:
            expected = interfaces_oracle.targets_within(store, str(table_uri(dataset, table)), 2)
            answer = bootstrapped_platform.get_path_to_table(dataset, table, hops=2)
            assert sorted(answer.column("hops")) == sorted(expected.values())


class TestKeywordSearchAgainstOracle:
    CONDITIONS = [
        [],
        ["train"],
        "train",
        ["TRAIN"],
        [["titanic", "age"]],
        [["Titanic", "Zzz"], "HEART"],
        [["heart", "chol"], ["titanic", "chol"]],
        ["zzz_not_there"],
        [[]],
    ]

    @staticmethod
    def normalized(rows):
        return sorted(
            (row["table_uri"], row["dataset"], row["table"], sorted(row["columns"])) for row in rows
        )

    def assert_matches_oracle(self, platform, conditions):
        answer = platform.search_keywords(conditions)
        rows = [
            {**dict(zip(answer.column_names, row)), "columns": row[3].split(", ") if row[3] else []}
            for row in table_rows(answer)
        ]
        expected = interfaces_oracle.search_keywords(
            platform.storage, [conditions] if isinstance(conditions, str) else conditions
        )
        assert self.normalized(rows) == self.normalized(expected)
        # URI order, column names ascending: nothing follows the store's layout.
        assert [row["table_uri"] for row in rows] == sorted(row["table_uri"] for row in rows)
        assert all(row["columns"] == sorted(row["columns"]) for row in rows)
        return answer

    @pytest.mark.parametrize("conditions", CONDITIONS, ids=repr)
    def test_nested_flat_and_mixed_case_conditions(self, small_lake, conditions):
        governor = KGGovernor()
        governor.add_data_lake(small_lake)
        self.assert_matches_oracle(KGLiDS(governor), conditions)

    def test_governed_benchmark_lake(self, bootstrapped_platform, tiny_benchmark):
        domain = tiny_benchmark.lake.datasets[0].name.split("_")[0]
        for conditions in ([], [[domain]], [["zzz"], domain], domain.upper()):
            self.assert_matches_oracle(bootstrapped_platform, conditions)

    def test_bare_string_is_one_term(self, small_lake):
        """``"heart"`` is the term ``heart``, not the letters h, e, a, r, t."""
        governor = KGGovernor()
        governor.add_data_lake(small_lake)
        platform = KGLiDS(governor)
        assert list(platform.search_keywords("heart").column("table")) == ["heart"]
        assert table_rows(platform.search_keywords("heart")) == table_rows(
            platform.search_keywords(["heart"])
        )

    @pytest.mark.parametrize("conditions", [5, [5], [["heart", 5]], [None], [[["heart"]]]])
    def test_malformed_conditions_raise(self, bootstrapped_platform, conditions):
        with pytest.raises(TypeError):
            bootstrapped_platform.search_keywords(conditions)


class TestDerivedViewsFollowTheGraph:
    """Views are rebuilt after add, refresh and retract — also for the reads
    of a thread inside its own uncommitted write batch (read-your-writes),
    and again when that batch rolls back.  The similarity and library answers
    equal the oracle's at every step, and a rolled-back batch leaves them as
    they were."""

    @staticmethod
    def people(name: str, shift: int = 0) -> Table:
        return Table.from_dict(
            name,
            {
                "person_id": [100 + shift + i for i in range(12)],
                "age": [20 + i for i in range(12)],
                f"{name}_score": [0.5 * i for i in range(12)],
            },
            dataset="people",
        )

    TABLES = [("people", "first"), ("people", "second")]

    def discovery(self, platform):
        """Every similarity and library answer, after checking it against the oracle."""
        assert_discovery_matches_oracle(platform, self.TABLES, ks=(1, 10), tasks=(None, "classification"))
        answers = [
            table_rows(related_call(platform, relation)(dataset, table, 10))
            for dataset, table in self.TABLES
            for relation in RELATIONS
        ]
        libraries = [platform.get_top_used_libraries(10, task) for task in (None, "classification")]
        return answers + [table_rows(answer) for answer in libraries]

    def test_add_refresh_retract(self, example_pipeline_source):
        governor = KGGovernor()
        platform = KGLiDS(governor)
        store = governor.storage.graph
        pipeline = PipelineScript("people_pipeline", example_pipeline_source, "people", task="classification")
        governor.add_table(self.people("first"), dataset_name="people")
        assert platform.get_path_to_table("people", "first", 2).num_rows == 0
        assert platform.search_keywords("second").num_rows == 0
        before = self.discovery(platform)
        assert not any(before)
        with pytest.raises(ZeroDivisionError), store.write_batch():
            governor.add_table(self.people("second"), dataset_name="people")
            governor.add_pipelines([pipeline])
            with platform.read_view():  # the writer reads its own uncommitted batch
                assert platform.search_keywords("second_score").num_rows == 1
                assert platform.get_path_to_table("people", "first", 2).num_rows == 1
                assert list(platform.get_joinable_tables("people", "first").column("table")) == ["second"]
                assert "pandas" in platform.get_top_used_libraries(10, "classification").column("library_name")
                assert self.discovery(platform) != before
            1 / 0
        # Rolled back: the views built inside the batch are gone with it.
        assert platform.search_keywords("second").num_rows == 0
        assert platform.get_path_to_table("people", "first", 2).num_rows == 0
        assert self.discovery(platform) == before
        governor.add_table(self.people("second"), dataset_name="people")
        governor.add_pipelines([pipeline])
        added = self.discovery(platform)
        assert all(added)
        with platform.read_view():
            assert list(platform.search_keywords("second_score").column("table")) == ["second"]
            paths = platform.get_path_to_table("people", "first", 2)
            assert sorted(zip(paths.column("hops"), paths.column("target_table"))) == sorted(
                (distance, interfaces_oracle.table_label(store, target))
                for target, distance in interfaces_oracle.targets_within(
                    store, str(table_uri("people", "first")), 2
                ).items()
            )
            assert paths.num_rows == 1
        # Refresh: the table keeps its URI and loses a column name.
        refreshed = self.people("second")
        refreshed = Table.from_dict(
            "second",
            {"person_id": refreshed.column("person_id"), "age": refreshed.column("age")},
            dataset="people",
        )
        governor.refresh_table(refreshed, dataset_name="people")
        assert platform.search_keywords("second_score").num_rows == 0
        assert list(platform.search_keywords("second").column("columns")) == ["age, person_id"]
        self.discovery(platform)
        governor.retract_table("people", "second")
        assert platform.search_keywords("second").num_rows == 0
        assert platform.get_path_to_table("people", "first", 2).num_rows == 0
        assert platform.get_shortest_path_between_tables("people", "first", "people", "second") is None
        retracted = self.discovery(platform)
        assert not any(retracted[:4]) and retracted[4:] == added[4:]  # the pipeline stays


class TestPipelineInterfaces:
    def test_top_k_libraries(self, bootstrapped_platform):
        result = bootstrapped_platform.get_top_k_library_used(5)
        assert 0 < result.num_rows <= 5
        counts = list(result.column("num_pipelines"))
        assert counts == sorted(counts, reverse=True)
        assert "pandas" in result.column("library_name")

    def test_top_libraries_filtered_by_task(self, bootstrapped_platform):
        result = bootstrapped_platform.get_top_used_libraries(5, task="classification")
        assert result.num_rows > 0
        unfiltered = bootstrapped_platform.get_top_used_libraries(5, task=None)
        assert unfiltered.num_rows >= result.num_rows - 1

    def test_tied_libraries_rank_by_name(self, bootstrapped_platform):
        everything = bootstrapped_platform.get_top_k_library_used(1000)
        ranked = list(zip(everything.column("num_pipelines"), everything.column("library_name")))
        assert ranked == sorted(ranked, key=lambda row: (-row[0], row[1]))
        counts = [count for count, _ in ranked]
        tied_at = next(k for k in range(1, len(counts)) if counts[k - 1] == counts[k])
        cut = bootstrapped_platform.get_top_k_library_used(tied_at)
        assert list(cut.column("library_name")) == [name for _, name in ranked[:tied_at]]

    def test_task_string_is_escaped(self, bootstrapped_platform):
        assert bootstrapped_platform.get_top_used_libraries(5, task='no "such" task\\').num_rows == 0

    def test_pipelines_calling_libraries(self, bootstrapped_platform):
        result = bootstrapped_platform.get_pipelines_calling_libraries(
            "pandas.read_csv", "sklearn.model_selection.train_test_split"
        )
        assert result.num_rows > 0
        votes = list(result.column("votes"))
        assert votes == sorted(votes, reverse=True)
        none_result = bootstrapped_platform.get_pipelines_calling_libraries("no.such.call")
        assert none_result.num_rows == 0


class TestModelAndAdHocInterfaces:
    def test_recommend_ml_models_table_output(self, bootstrapped_platform, tiny_benchmark):
        table = tiny_benchmark.lake.tables()[1]
        result = bootstrapped_platform.recommend_ml_models(table, k=3)
        assert result.num_rows > 0
        assert "estimator" in result.column_names

    def test_ad_hoc_query_returns_table(self, bootstrapped_platform):
        result = bootstrapped_platform.query(
            "SELECT (COUNT(?t) AS ?n) WHERE { ?t a kglids:Table }"
        )
        assert isinstance(result, Table)
        assert result.column("n")[0] > 0

    def test_statistics_manager(self, bootstrapped_platform):
        stats = bootstrapped_platform.statistics()
        assert stats["num_triples"] > 0
        assert stats["num_models"] >= 1

    def test_model_manager_contains_trained_gnns(self, bootstrapped_platform):
        models = bootstrapped_platform.storage.list_models()
        assert "cleaning_gnn" in models
