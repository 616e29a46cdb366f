"""Integration tests for the KGLiDS interfaces (Section 5 operations)."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import interfaces_oracle
from repro.interfaces import KGLiDS
from repro.kg import KGGovernor
from repro.kg.ontology import DATASET_GRAPH, LiDSOntology, table_uri
from repro.rdf import RDF, Literal
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
    and again when that batch rolls back."""

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

    def test_add_refresh_retract(self):
        governor = KGGovernor()
        platform = KGLiDS(governor)
        store = governor.storage.graph
        governor.add_table(self.people("first"), dataset_name="people")
        assert platform.get_path_to_table("people", "first", 2).num_rows == 0
        assert platform.search_keywords("second").num_rows == 0
        with pytest.raises(ZeroDivisionError), store.write_batch():
            governor.add_table(self.people("second"), dataset_name="people")
            with platform.read_view():  # the writer reads its own uncommitted batch
                assert platform.search_keywords("second_score").num_rows == 1
                assert platform.get_path_to_table("people", "first", 2).num_rows == 1
            1 / 0
        # Rolled back: the views built inside the batch are gone with it.
        assert platform.search_keywords("second").num_rows == 0
        assert platform.get_path_to_table("people", "first", 2).num_rows == 0
        governor.add_table(self.people("second"), dataset_name="people")
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
        governor.retract_table("people", "second")
        assert platform.search_keywords("second").num_rows == 0
        assert platform.get_path_to_table("people", "first", 2).num_rows == 0
        assert platform.get_shortest_path_between_tables("people", "first", "people", "second") is None


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
