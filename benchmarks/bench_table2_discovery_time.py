"""Table 2 — Preprocessing and average query time for union search.

Compares SANTOS, Starmie and KGLiDS on every discovery benchmark.  The
expected shape (the paper's result): KGLiDS has the lowest preprocessing and
query times, Starmie sits in between (its per-lake embedding training
dominates preprocessing), and SANTOS is slowest because it works at value
granularity both offline and per query.
"""

import time

from repro.baselines import SantosUnionSearch, StarmieUnionSearch
from repro.eval import format_report_table
from repro.interfaces import LiDSClient
from repro.kg import KGGovernor


def _time_system(preprocess, query_fn, queries):
    started = time.perf_counter()
    preprocess()
    preprocessing_seconds = time.perf_counter() - started
    started = time.perf_counter()
    for query in queries:
        query_fn(query)
    query_seconds = (time.perf_counter() - started) / max(1, len(queries))
    return preprocessing_seconds, query_seconds


def test_table2_preprocessing_and_query_time(discovery_workloads, benchmark):
    rows = []
    summary = {}
    clients = {}
    for style, workload in discovery_workloads.items():
        queries = workload.query_tables
        query_tables = [workload.lake.table(*query) for query in queries]

        santos = SantosUnionSearch()
        santos_pre, santos_query = _time_system(
            lambda: santos.preprocess(workload.lake),
            lambda table: santos.query(table, k=10),
            query_tables,
        )
        starmie = StarmieUnionSearch(training_epochs=10)
        starmie_pre, starmie_query = _time_system(
            lambda: starmie.preprocess(workload.lake),
            lambda table: starmie.query(table, k=10),
            query_tables,
        )
        # KGLiDS preprocesses by governing the lake (profiling, dataset
        # graph, embeddings); a query is one client call.
        governor = KGGovernor()
        client = clients[style] = LiDSClient(governor)
        kglids_pre, kglids_query = _time_system(
            lambda: governor.add_data_lake(workload.lake),
            lambda query: client.get_unionable_tables(*query, k=10),
            queries,
        )

        summary[style] = {
            "santos": (santos_pre, santos_query),
            "starmie": (starmie_pre, starmie_query),
            "kglids": (kglids_pre, kglids_query),
        }
        rows.append([style, "preprocessing (s)", round(santos_pre, 3), round(starmie_pre, 3), round(kglids_pre, 3)])
        # Milliseconds: a KGLiDS query is well under one, which a 3-decimal
        # seconds cell prints as 0.000.
        rows.append([style, "avg query (ms)", 1e3 * santos_query, 1e3 * starmie_query, 1e3 * kglids_query])

    print()
    print(
        format_report_table(
            ["benchmark", "phase", "SANTOS", "Starmie", "KGLiDS"],
            rows,
            title="Table 2: preprocessing and average query time",
        )
    )

    # Shape assertions: KGLiDS answers union queries faster than both
    # baselines on every benchmark (a query ranks the anchor's annotated
    # unionableWith edges in the governed graph, while SANTOS re-compares
    # value pairs and Starmie probes the ANN index).
    # The paper's preprocessing ordering (SANTOS slowest by far) does not
    # fully reproduce at laptop scale because the offline gazetteer KB is
    # tiny compared to YAGO — see EXPERIMENTS.md for the discussion.
    for style, timings in summary.items():
        assert timings["kglids"][1] <= timings["santos"][1]
        assert timings["kglids"][1] <= timings["starmie"][1]

    # Benchmarked operation: a single KGLiDS union query on the largest lake.
    query = discovery_workloads["santos_large"].query_tables[0]
    benchmark(lambda: clients["santos_large"].get_unionable_tables(*query, k=10))
