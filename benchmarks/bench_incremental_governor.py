"""Benchmark — incremental KG construction.

Measures **incremental adds**: governing N tables one `add_table` at a time
with the incremental governor (new x existing similarity only, vectorized
kernels) versus the seed behaviour (full schema rebuild over all accumulated
profiles on every add, per-pair Python similarity workers).  SPARQL latency
is measured by ``bench_sparql_engine.py`` and ``benchmarks/e2e``.

Results are written to ``benchmarks/BENCH_incremental.json`` so the perf
trajectory stays visible across PRs.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_incremental_governor.py --tables 50

or as a pytest smoke test (small sizes, used by ``run_all.py``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental_governor.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.datagen import generate_discovery_benchmark
from repro.eval import format_report_table
from repro.kg.dataset_graph import DataGlobalSchemaBuilder
from repro.kg.governor import KGGovernor
from repro.profiler import DataProfiler
from repro.rdf import QuadStore
from repro.tabular import Table

RESULT_PATH = Path(__file__).parent / "BENCH_incremental.json"


def _generate_tables(num_tables: int, rows: int, seed: int) -> List[Table]:
    """``num_tables`` partitioned tables with overlapping schemas."""
    partitions = 5 if num_tables >= 25 else 3
    base_tables = (num_tables + partitions - 1) // partitions
    benchmark = generate_discovery_benchmark(
        "tus_small", seed=seed, base_tables=base_tables, partitions=partitions, rows=rows
    )
    return benchmark.lake.tables()[:num_tables]


# ----------------------------------------------------------------- governor
def time_incremental_adds(tables: List[Table]) -> Tuple[KGGovernor, List[float]]:
    """Per-add wall time of the incremental governor."""
    governor = KGGovernor()
    per_add: List[float] = []
    for table in tables:
        started = time.perf_counter()
        governor.add_table(table, dataset_name=table.dataset)
        per_add.append(time.perf_counter() - started)
    return governor, per_add


def time_seed_behavior_adds(tables: List[Table]) -> List[float]:
    """Per-add wall time of the seed behaviour.

    The seed ``add_data_lake`` profiled the new table and then re-ran the
    full ``DataGlobalSchemaBuilder.build`` over *all* accumulated profiles
    with the per-pair Python similarity workers; this loop reproduces that.
    """
    profiler = DataProfiler()
    builder = DataGlobalSchemaBuilder(vectorized=False)
    store = QuadStore()
    profiles = []
    per_add: List[float] = []
    for table in tables:
        started = time.perf_counter()
        profiles.append(profiler.profile_table(table))
        builder.build(profiles, store)
        per_add.append(time.perf_counter() - started)
    return per_add


def check_graphs_identical(tables: List[Table], incremental: KGGovernor) -> bool:
    """One-shot bootstrap over the same tables must equal incremental adds."""
    from repro.tabular import DataLake

    lake = DataLake("bench_check")
    for table in tables:
        lake.add_table(table.dataset, table)
    bootstrap = KGGovernor()
    bootstrap.add_data_lake(lake)

    def snapshot(store: QuadStore):
        return {graph: frozenset(store.triples(graph=graph)) for graph in store.graphs()}

    return snapshot(bootstrap.storage.graph) == snapshot(incremental.storage.graph)


# --------------------------------------------------------------------- main
def run_benchmark(num_tables: int, rows: int, seed: int = 7) -> Dict:
    tables = _generate_tables(num_tables, rows, seed)
    # Warm the process-wide word-model / NER caches so neither timed loop
    # pays one-off cache misses the other then benefits from.
    for table in tables:
        DataProfiler().profile_table(table)
    governor, incremental_seconds = time_incremental_adds(tables)
    seed_seconds = time_seed_behavior_adds(tables)
    identical = check_graphs_identical(tables, governor)

    total_incremental = sum(incremental_seconds)
    total_seed = sum(seed_seconds)
    report = {
        "config": {"num_tables": len(tables), "rows": rows, "seed": seed},
        "incremental": {
            "per_add_seconds": [round(s, 5) for s in incremental_seconds],
            "total_seconds": round(total_incremental, 4),
        },
        "seed_behavior": {
            "per_add_seconds": [round(s, 5) for s in seed_seconds],
            "total_seconds": round(total_seed, 4),
        },
        "construction_speedup": round(total_seed / total_incremental, 2)
        if total_incremental > 0
        else 0.0,
        "graphs_identical": identical,
        "num_triples": governor.storage.graph.num_triples(),
    }
    return report


def print_report(report: Dict) -> None:
    config = report["config"]
    rows = [
        ["construction total (s)",
         report["seed_behavior"]["total_seconds"],
         report["incremental"]["total_seconds"],
         report["construction_speedup"]],
        ["last add (s)",
         report["seed_behavior"]["per_add_seconds"][-1],
         report["incremental"]["per_add_seconds"][-1],
         round(
             report["seed_behavior"]["per_add_seconds"][-1]
             / max(1e-9, report["incremental"]["per_add_seconds"][-1]),
             2,
         )],
    ]
    print(
        format_report_table(
            ["metric", "seed", "incremental", "speedup"],
            rows,
            title=f"Incremental governor bench ({config['num_tables']} tables)",
        )
    )
    print(f"graphs identical: {report['graphs_identical']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=50)
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args()
    if args.tables < 2:
        parser.error("--tables must be >= 2 (similarity needs at least one table pair)")
    report = run_benchmark(args.tables, args.rows)
    print_report(report)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")


# ------------------------------------------------------------ pytest smoke
def test_incremental_governor_smoke():
    """Smoke configuration: incrementality must win and preserve the graph."""
    num_tables = 8 if os.environ.get("REPRO_BENCH_SMOKE") else 12
    report = run_benchmark(num_tables=num_tables, rows=40)
    assert report["graphs_identical"]
    assert report["construction_speedup"] > 1.0


if __name__ == "__main__":
    main()
