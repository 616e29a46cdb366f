"""The batched write path against the per-quad one, and CoLR against per-value.

``tests/store_write_oracle.py`` keeps the writers that pushed one quad at a
time through ``QuadStore.add`` / ``annotate`` / ``remove``;
``tests/colr_oracle.py`` keeps the per-cell ``embed_values``.  Here the
benchmark's generated lake (``benchmarks/e2e``: 32 tables of the TUS-style
generator at lake seed 0, 3 pipelines a table) is governed and then drifted
for 8 rounds — 2 tables retracted, 1 refreshed, 2 added, the ``ingest``
workload's shape — once through production and once through the oracle, on
both backends.  After every phase the two stores must agree on the N-Quads
dump, on the dictionary rows *in id order* (what keeps the sqlite file
byte-comparable), on the ``GraphIndex`` of every graph and on the sqlite
tables.  Every production commit must log the net of the oracle's ops — the
oracle's refresh retracts the whole footprint and writes it back, production
writes the difference — and every add or retract commit exactly the
oracle's.  A failed assertion names backend × phase.
"""

from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colr_oracle
from store_write_oracle import assert_index_is_tight, dictionary_rows, index_contents, net_ops, oracle_governor, retract_per_quad

from repro.datagen import generate_discovery_benchmark, generate_pipeline_corpus
from repro.embeddings.colr import ColRModelSet, numeric_value_features
from repro.kg import KGGovernor, KGLiDSStorage
from repro.profiler.profile import DataProfiler
from repro.rdf import Literal, QuadStore, QuotedTriple, URIRef
from repro.rdf.serialize import serialize_nquads
from repro.tabular import DataLake, Table
from repro.types import COLR_TYPES

LAKE_TABLES, ROUNDS = 32, 8
NEW, CHANGED, DELETED = 2, 1, 2


@pytest.fixture(scope="module")
def lake_tables():
    """The e2e lake plus the reserve 8 drift rounds bring in."""
    count = LAKE_TABLES + ROUNDS * NEW
    benchmark = generate_discovery_benchmark(
        "tus_small", seed=0, base_tables=(count + 3) // 4, partitions=4, rows=60
    )
    return benchmark.lake.tables()[:count]


def as_lake(tables) -> DataLake:
    lake = DataLake("e2e")
    for table in tables:
        lake.add_table(table.dataset, table)
    return lake


def drift_rounds(tables):
    """``(deleted keys, changed tables, new tables)`` per round, from seed 7."""
    rng = random.Random(7)
    present = {(table.dataset, table.name): table for table in tables[:LAKE_TABLES]}
    reserve = tables[LAKE_TABLES:]
    for first in range(0, ROUNDS * NEW, NEW):
        deleted = rng.sample(sorted(present), DELETED)
        for key in deleted:
            del present[key]
        changed = []
        for key in rng.sample(sorted(present), CHANGED):
            table = present[key]
            row = rng.randrange(table.num_rows)
            columns = {column.name: list(column.values) + [column.values[row]] for column in table.columns}
            present[key] = Table.from_dict(table.name, columns, dataset=table.dataset)
            changed.append(present[key])
        new = reserve[first : first + NEW]
        present.update(((table.dataset, table.name), table) for table in new)
        yield deleted, changed, new


def open_governor(make, backend, path):
    store = QuadStore.sqlite(path) if backend == "sqlite" else QuadStore()
    store.enable_delta_log(capacity=4096)
    return make(KGLiDSStorage(graph=store))


def sqlite_tables(store: QuadStore) -> dict:
    """Every catalog, term, quoted-triple and quad row of a flushed sqlite store, by table."""
    store.flush()
    connection = store.backend._connection
    names = [
        name
        for (name,) in connection.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        if name in ("graphs", "terms", "quoted") or name.startswith("quads_")
    ]
    return {name: sorted(connection.execute(f"SELECT * FROM {name}")) for name in names}


def assert_same_store(production, oracle, where: str) -> None:
    """Both governors' stores hold the same state (sqlite: the same file rows)."""
    ours, theirs = production.storage.graph, oracle.storage.graph
    assert serialize_nquads(ours) == serialize_nquads(theirs), f"{where}: N-Quads dump"
    assert dictionary_rows(ours) == dictionary_rows(theirs), (
        f"{where}: dictionary rows (ids or order)"
    )
    assert ours.commit_version == theirs.commit_version, f"{where}: commit version"
    assert ours.graphs() == theirs.graphs(), f"{where}: graph catalog"
    for graph in ours.graphs():
        index = ours.backend.get_index(graph)
        assert index_contents(index) == index_contents(theirs.backend.get_index(graph)), (
            f"{where}: GraphIndex of {graph}"
        )
        assert_index_is_tight(index)
    if ours.persistent:
        # The files hold the same catalog, terms and rows under the same ids.
        assert sqlite_tables(ours) == sqlite_tables(theirs), f"{where}: sqlite table contents"


def settled(ops) -> list:
    """A commit's ops with each run of removes sorted.

    Removes come in the order of a walk over hash buckets, and a set's
    iteration order follows its history: once a refresh has kept rows the
    oracle deleted and re-inserted, the two stores walk equal buckets in
    different orders.  Which rows each run removes, and every other op in
    its place, still compare exactly.
    """
    out, removes = [], []
    for op in ops:
        if op[0] == "remove":
            removes.append(op)
            continue
        out += sorted(removes) + [op]
        removes = []
    return out + sorted(removes)


def drive(governors, act, where: str, refresh: bool = False) -> list:
    """Run ``act`` on both governors, compare the commits it made, return its results.

    Each production commit logs the net of the oracle's ops for it — on the
    add and retract paths nothing cancels, so the two logs are equal — and
    moves the mutation counter by ``|old − new| + |new − old|``, ``old`` and
    ``new`` being the rows the oracle removed and added.
    """
    production, oracle = (governor.storage.graph for governor in governors)
    since, version = production.commit_version, production.version
    results = [act(governor) for governor in governors]
    ours, theirs = production.delta_log_since(since), oracle.delta_log_since(since)
    assert [commit for commit, _ in ours] == [commit for commit, _ in theirs], f"{where}: commits"
    changed = 0
    for (commit, our_ops), (_, their_ops) in zip(ours, theirs):
        net = net_ops(their_ops)
        assert settled(our_ops) == settled(net), f"{where}: delta-log entry of commit {commit}"
        if refresh:
            assert len(our_ops) < len(their_ops), f"{where}: commit {commit} rewrote its whole footprint"
        else:
            assert net == their_ops, f"{where}: commit {commit} wrote a row twice"
        old = {op[1:] for op in their_ops if op[0] == "remove"}
        new = {op[1:] for op in their_ops if op[0] == "add"}
        changed += len(old - new) + len(new - old) + sum(op[0] == "drop" for op in their_ops)
    assert production.version - version == changed, f"{where}: mutation counter"
    return results


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_batched_writers_match_per_quad_writers(backend, lake_tables, tmp_path):
    production = open_governor(lambda storage: KGGovernor(storage=storage), backend, tmp_path / "p.sqlite3")
    oracle = open_governor(oracle_governor, backend, tmp_path / "o.sqlite3")
    governors = (production, oracle)
    try:
        initial = lake_tables[:LAKE_TABLES]
        drive(governors, lambda governor: governor.add_data_lake(as_lake(initial)), f"{backend} × bulk govern")
        assert_same_store(*governors, f"{backend} × bulk govern")
        scripts = generate_pipeline_corpus(as_lake(initial), pipelines_per_table=3, seed=0)
        drive(governors, lambda governor: governor.add_pipelines(scripts), f"{backend} × pipelines")
        assert_same_store(*governors, f"{backend} × pipelines")
        for number, (deleted, changed, new) in enumerate(drift_rounds(lake_tables), 1):
            where = f"{backend} × drift round {number}"
            for dataset, table in deleted:
                assert all(drive(governors, lambda governor: governor.retract_table(dataset, table), f"{where} retract"))
            for table in changed:
                drive(governors, lambda governor: governor.refresh_table(table), f"{where} refresh", refresh=True)
            for table in new:
                drive(governors, lambda governor: governor.add_table(table, table.dataset), f"{where} add")
            assert_same_store(*governors, where)
    finally:
        for governor in governors:
            governor.close()


# ------------------------------------------------------------------ rollback
EX = "http://example.org/"
G = URIRef(EX + "graph")


def u(name: str) -> URIRef:
    return URIRef(EX + name)


@pytest.mark.parametrize("backend", ["memory", "sqlite", "faulted-memory", "faulted-sqlite"])
def test_a_batch_raising_after_bulk_writes_rolls_back(backend, tmp_path, open_store):
    store = open_store(backend, tmp_path / "g.sqlite3")
    with store.write_batch():
        store.add_many([(u(f"s{i}"), u("p"), u(f"s{i + 1}")) for i in range(6)], G)
        store.annotate(u("s0"), u("sim"), u("s3"), u("score"), Literal(0.9), graph=G)
        store.annotate(u("s3"), u("sim"), u("s0"), u("score"), Literal(0.9), graph=G)
    before = serialize_nquads(store)
    rows = dictionary_rows(store)
    contents = index_contents(store.backend.get_index(G))
    version = store.commit_version
    with pytest.raises(RuntimeError, match="after the bulk writes"):
        with store.write_batch():
            assert store.retract_nodes([u("s3"), u("absent")], G) == 6
            assert store.add_many(
                [
                    (u("n1"), u("p"), u("n2")),
                    (QuotedTriple(u("n1"), u("p"), u("n2")), u("score"), Literal(0.5)),
                    (u("s0"), u("p"), u("s1")),  # already there
                ],
                G,
            ) == 2
            raise RuntimeError("after the bulk writes")
    assert serialize_nquads(store) == before
    assert dictionary_rows(store) == rows
    assert index_contents(store.backend.get_index(G)) == contents
    assert store.commit_version == version
    store.close()


def test_bulk_writes_equal_their_per_quad_spelling():
    """``add_many`` / ``retract_nodes`` against ``add`` / ``remove`` on one store pair."""
    bulk, single = QuadStore(), QuadStore()
    for store in (bulk, single):
        store.enable_delta_log()
    triples = [(u(f"s{i % 5}"), u(f"p{i % 3}"), u(f"s{(i * 7) % 5}")) for i in range(20)]
    quoted = [(QuotedTriple(*triple), u("score"), Literal(i / 10)) for i, triple in enumerate(triples[:6])]
    assert bulk.add_many(triples + quoted, G) == sum(
        single.add(*triple, graph=G) for triple in triples + quoted
    )
    assert bulk.retract_nodes([u("s1"), u("s4")], G) == sum(
        single.remove(*triple, graph=G)
        for node in (u("s1"), u("s4"))
        for triple in (
            list(single.triples(subject=node, graph=G))
            + list(single.triples(obj=node, graph=G))
            + [t for t, _ in single.match_quoted(inner_subject=node, graph=G)]
            + [t for t, _ in single.match_quoted(inner_object=node, graph=G)]
        )
    )
    assert serialize_nquads(bulk) == serialize_nquads(single)
    assert dictionary_rows(bulk) == dictionary_rows(single)
    bulk_ops, single_ops = (
        [op for _, ops in store.delta_log_since(0) for op in ops] for store in (bulk, single)
    )
    assert bulk_ops == single_ops
    assert_index_is_tight(bulk.backend.get_index(G))
    assert bulk.add_many([], u("untouched")) == 0 and u("untouched") not in bulk.graphs()


# ------------------------------------------------------------ replace_nodes
NODES = [u(f"n{i}") for i in range(5)]
PREDICATES = [u("p0"), u("p1"), u("sim")]
OTHER = u("other")
CONFIGURATIONS = [
    ("memory", 3), ("memory", 11), ("memory", 42), ("sqlite", 7), ("sqlite", 19),
    ("faulted-memory", 3), ("faulted-sqlite", 7),
]


def rows_over(objects):
    """Plain rows and ``<< s p o >> score v`` annotations over the node vocabulary."""
    node = st.sampled_from(NODES)
    predicate = st.sampled_from(PREDICATES)
    return st.one_of(
        st.tuples(node, predicate, objects),
        st.builds(
            lambda s, p, o, value: (QuotedTriple(s, p, o), u("score"), value), node, predicate, node, objects
        ),
    )


SCORES = st.builds(Literal, st.integers(0, 3))
FRESH = st.builds(lambda k: Literal(f"fresh {k}"), st.integers(0, 2))


@pytest.mark.parametrize("configuration, seed", CONFIGURATIONS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replace_nodes_writes_the_net_of_retract_then_add(configuration, seed, open_store, data):
    """``replace_nodes`` leaves the store exactly as ``retract_nodes`` +
    ``add_many`` do — triples, term ids, index, file rows — and its commit
    logs only the net change of the per-quad spelling (``match`` →
    ``remove``, then ``add``): deletes in walk order, then inserts."""
    objects = st.one_of(st.sampled_from(NODES), SCORES)
    base = data.draw(st.lists(rows_over(objects), max_size=30), label="graph")
    nodes = data.draw(st.lists(st.sampled_from(NODES + [u("absent")]), max_size=4), label="nodes")
    new = data.draw(st.lists(rows_over(st.one_of(objects, FRESH)), max_size=20), label="new")
    new += data.draw(st.lists(st.sampled_from(base + new), max_size=8) if base + new else st.just([]), label="dup")
    rng = random.Random(seed)
    other = [(rng.choice(NODES), rng.choice(PREDICATES), rng.choice(NODES)) for _ in range(8)]
    with tempfile.TemporaryDirectory() as directory:
        ours, reference, per_quad = (
            open_store(configuration, Path(directory) / f"{name}.sqlite3") for name in ("ours", "reference", "per_quad")
        )
        for store in (ours, reference, per_quad):
            store.enable_delta_log()
            with store.write_batch():
                store.add_many(other, OTHER)
                store.add_many(base, G)
        version = ours.version
        counts = ours.replace_nodes(nodes, new, G)
        with reference.write_batch():
            reference.retract_nodes(nodes, G)
            reference.add_many(new, G)
        with per_quad.write_batch():
            retract_per_quad(per_quad, nodes, G)
            for triple in new:
                per_quad.add(*triple, graph=G)
        assert serialize_nquads(ours) == serialize_nquads(reference)
        assert dictionary_rows(ours) == dictionary_rows(reference)
        assert ours.graphs() == reference.graphs()
        for graph in ours.graphs():
            index = ours.backend.get_index(graph)
            assert index_contents(index) == index_contents(reference.backend.get_index(graph))
            assert_index_is_tight(index)
        if ours.persistent:
            assert sqlite_tables(ours) == sqlite_tables(reference)
        (_, ops), (_, reference_ops), (_, per_quad_ops) = (
            store.delta_log_since(0)[-1] for store in (ours, reference, per_quad)
        )
        assert reference_ops == per_quad_ops
        assert ops == net_ops(per_quad_ops)
        kinds = [kind for kind, _, _ in ops]
        assert kinds == sorted(kinds, reverse=True)  # every "remove" before every "add"
        assert counts == (kinds.count("remove"), kinds.count("add"))
        assert ours.version - version == len(ops)
        for store in (ours, reference, per_quad):
            store.close()


def test_a_retraction_walks_a_bucket_that_holds_the_whole_graph_in_bucket_order(open_store):
    """An example the property above drew: once ``n0``'s rows are gone,
    ``n1``'s object bucket holds every row left in the graph.  ``match``
    still walks that bucket, not the graph's triple set, so the per-quad
    spelling deletes in the order ``replace_nodes`` logs."""
    n0, n1, p0 = u("n0"), u("n1"), u("p0")
    base = [
        (n0, p0, n0), (n0, p0, n1), (u("n2"), p0, n1),
        (QuotedTriple(n0, p0, n0), u("score"), n0), (QuotedTriple(n1, p0, n1), u("score"), n1),
    ]
    rng = random.Random(3)
    other = [(rng.choice(NODES), rng.choice(PREDICATES), rng.choice(NODES)) for _ in range(8)]
    stores = [open_store("memory", None) for _ in range(2)]
    for store in stores:
        store.enable_delta_log()
        with store.write_batch():
            store.add_many(other, OTHER)
            store.add_many(base, G)
    reference, per_quad = stores
    with reference.write_batch():
        reference.retract_nodes([n0, n1], G)
    with per_quad.write_batch():
        retract_per_quad(per_quad, [n0, n1], G)
    assert reference.delta_log_since(0)[-1] == per_quad.delta_log_since(0)[-1]


# ---------------------------------------------------------------- embeddings
def test_column_embeddings_are_bit_equal_to_the_per_value_oracle(lake_tables):
    from repro.datagen import (
        generate_automl_datasets,
        generate_cleaning_datasets,
        generate_transformation_datasets,
    )

    sessions = [
        generator(count=4, seed=0, base_rows=20)[0]
        for generator in (generate_cleaning_datasets, generate_transformation_datasets, generate_automl_datasets)
    ]
    tables = list(lake_tables) + [session.table for session in sessions]
    profiler = DataProfiler()
    columns = 0
    for table in tables:
        for column, profile in zip(table.columns, profiler.profile_table(table).column_profiles):
            size = max(
                int(profiler.sample_fraction * len(column)), min(profiler.min_sample_size, len(column))
            )
            sample = column.sample(size, seed=profiler.seed)
            model = profiler.colr_models.model_for(profile.fine_grained_type)
            expected = colr_oracle.embed_values(model, sample)
            assert np.array_equal(profile.embedding, expected), f"{table.name}.{column.name}"
            assert np.array_equal(model.embed_values(tuple(sample)), expected)  # any Sequence
            columns += 1
    assert columns > 200


CELLS = st.one_of(
    st.sampled_from(["", " ", "\t \n", "1", "1.0", "True", "é", "é", "Ünïcödé", "東京", "a b", "A-1"]),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, float("nan"), 2020, -3.5]),
    st.sampled_from([float("inf"), float("-inf"), "inf", "-Infinity", sys.float_info.max]),
    st.text(max_size=12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-10**9, max_value=10**9),
)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(CELLS, max_size=12).flatmap(
        lambda cells: st.lists(st.sampled_from(cells), min_size=len(cells), max_size=3 * len(cells))
        if cells
        else st.just([])
    ),
    fine_type=st.sampled_from(sorted(COLR_TYPES)),
)
def test_embed_values_matches_the_oracle_on_any_cell_mix(values, fine_type):
    model = MODELS.model_for(fine_type)
    assert np.array_equal(model.embed_values(values), colr_oracle.embed_values(model, values), equal_nan=True)


MODELS = ColRModelSet.pretrained()


@settings(max_examples=300, deadline=None)
@given(value=st.floats(allow_nan=True, allow_infinity=True))
def test_numeric_featurizer_clamps_only_infinities(value):
    """Finite cells featurize bit-equal to the seed's featurizer; an infinite
    one like the largest finite float of its sign."""
    ours = numeric_value_features(value)
    assert np.isfinite(ours).all()
    clamped = max(-sys.float_info.max, min(value, sys.float_info.max)) if value == value else value
    assert np.array_equal(ours, colr_oracle.numeric_value_features(clamped))
