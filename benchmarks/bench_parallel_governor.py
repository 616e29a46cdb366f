"""Benchmark — multi-core governance: process pools and ANN pruning.

Measures the two governance multipliers added on top of the
incremental/vectorized construction of ``bench_incremental_governor.py``:

* **Executor backends**: profiling + KG construction of the same lake under
  the ``serial``, ``threads`` and ``processes`` backends (the process pool
  loads the CoLR/word models once per worker and ships tables in chunks),
  against the seed per-pair serial baseline.  All three backends must
  produce identical graphs.
* **ANN candidate pruning**: exact full-matrix content similarity versus
  ``FlatIndex`` top-k pruned scoring on wide fine-grained type groups, with
  the achieved pruning ratio and edge recall.

Results are written to ``benchmarks/BENCH_parallel.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel_governor.py --tables 50

or as a pytest smoke test (small sizes, used by ``run_all.py``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_governor.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Dict, List

from repro.datagen import generate_discovery_benchmark
from repro.eval import format_report_table
from repro.kg.dataset_graph import DataGlobalSchemaBuilder
from repro.kg.governor import KGGovernor
from repro.parallel import JobExecutor
from repro.profiler import DataProfiler
from repro.rdf import QuadStore
from repro.tabular import DataLake, Table

RESULT_PATH = Path(__file__).parent / "BENCH_parallel.json"

BACKENDS = ("serial", "threads", "processes")


def _generate_lake(num_tables: int, rows: int, seed: int) -> DataLake:
    """A lake of ``num_tables`` partitioned tables with overlapping schemas."""
    partitions = 5 if num_tables >= 25 else 3
    base_tables = (num_tables + partitions - 1) // partitions
    benchmark = generate_discovery_benchmark(
        "tus_small", seed=seed, base_tables=base_tables, partitions=partitions, rows=rows
    )
    tables = benchmark.lake.tables()[:num_tables]
    lake = DataLake("bench_parallel")
    for table in tables:
        lake.add_table(table.dataset, table)
    return lake


def _snapshot(store: QuadStore):
    return {graph: frozenset(store.triples(graph=graph)) for graph in store.graphs()}


# ----------------------------------------------------------------- backends
def time_backends(lake: DataLake, workers: int) -> Dict[str, Dict]:
    """Full profiling + construction wall time per executor backend."""
    results: Dict[str, Dict] = {}
    snapshots = {}
    for backend in BACKENDS:
        executor = JobExecutor(backend=backend, max_workers=workers)
        governor = KGGovernor(executor=executor)
        started = time.perf_counter()
        report = governor.add_data_lake(lake)
        elapsed = time.perf_counter() - started
        snapshots[backend] = _snapshot(governor.storage.graph)
        results[backend] = {
            "seconds": round(elapsed, 4),
            "num_triples": governor.storage.graph.num_triples(),
            "num_similarity_edges": report.num_similarity_edges,
            "num_columns_profiled": report.num_columns_profiled,
            "process_fallback": executor.last_fallback_reason,
        }
    results["identical_graphs"] = all(
        snapshots[backend] == snapshots["serial"] for backend in BACKENDS
    )
    return results


def time_seed_baseline(lake: DataLake) -> float:
    """Governing the lake with the seed behaviour (the PR-1 bench baseline).

    The seed ``add_data_lake`` profiled each table serially and re-ran the
    full ``DataGlobalSchemaBuilder.build`` over *all* accumulated profiles
    with the per-pair Python similarity workers on every add; this loop
    reproduces that, matching ``bench_incremental_governor.py``.
    """
    profiler = DataProfiler()
    builder = DataGlobalSchemaBuilder(vectorized=False)
    store = QuadStore()
    profiles = []
    started = time.perf_counter()
    for table in lake.tables():
        profiles.append(profiler.profile_table(table))
        builder.build(profiles, store)
    return time.perf_counter() - started


# -------------------------------------------------------------- ANN pruning
def time_ann_pruning(lake: DataLake, repetitions: int) -> Dict:
    """Exact vs ANN-pruned content similarity over the same profiles."""
    profiles = DataProfiler().profile_data_lake(lake)
    # The partitioned synthetic lake is pathologically self-similar (every
    # column has dozens of near-duplicates above theta), so full recall
    # needs a generous top-k; sparser real lakes prune far harder at the
    # same recall (see tests/test_parallel_governor.py).
    group_threshold, top_k = 32, 48
    exact_builder = DataGlobalSchemaBuilder(ann_prune=False)
    pruned_builder = DataGlobalSchemaBuilder(
        ann_prune=True, ann_group_threshold=group_threshold, ann_top_k=top_k
    )
    timings = {}
    for label, builder in (("exact", exact_builder), ("pruned", pruned_builder)):
        started = time.perf_counter()
        for _ in range(repetitions):
            builder.reset_pruning_stats()
            edges = builder.compute_incremental_similarities(profiles, ())
        timings[label] = (time.perf_counter() - started) / repetitions
        timings[f"{label}_edges"] = edges

    def content_pairs(edges):
        return {(e.column_a, e.column_b) for e in edges if e.kind == "content"}

    exact_pairs = content_pairs(timings.pop("exact_edges"))
    pruned_pairs = content_pairs(timings.pop("pruned_edges"))
    recall = len(pruned_pairs & exact_pairs) / len(exact_pairs) if exact_pairs else 1.0
    return {
        "exact_seconds": round(timings["exact"], 5),
        "pruned_seconds": round(timings["pruned"], 5),
        "speedup": round(timings["exact"] / timings["pruned"], 2)
        if timings["pruned"] > 0
        else 0.0,
        "group_threshold": group_threshold,
        "pruned_groups": pruned_builder.pruning_stats["pruned_groups"],
        "pruning_ratio": round(pruned_builder.last_pruning_ratio, 4),
        "num_exact_content_edges": len(exact_pairs),
        "edge_recall": round(recall, 4),
    }


# --------------------------------------------------------------------- main
def run_benchmark(
    num_tables: int, rows: int, repetitions: int, workers: int = 4, seed: int = 7
) -> Dict:
    lake = _generate_lake(num_tables, rows, seed)
    # Warm process-wide caches (word model vectors, NER) so the first timed
    # backend doesn't pay one-off misses the others then benefit from.
    DataProfiler().profile_data_lake(lake)
    backends = time_backends(lake, workers=workers)
    seed_seconds = time_seed_baseline(lake)
    ann = time_ann_pruning(lake, repetitions)
    report = {
        "config": {
            "num_tables": len(lake.tables()),
            "rows": rows,
            "repetitions": repetitions,
            "workers": workers,
            "seed": seed,
            "cpu_count": os.cpu_count(),
        },
        "backends": backends,
        "seed_baseline_seconds": round(seed_seconds, 4),
        # Headline: the full pipeline (vectorized kernels + process fan-out)
        # governing the lake end to end, against the seed behaviour (per-add
        # full rebuild with per-pair Python similarity — the same baseline
        # bench_incremental_governor.py uses).  On multi-core hosts the
        # processes row additionally beats the serial row ~linearly.
        "construction_speedup": round(
            seed_seconds / backends["processes"]["seconds"], 2
        )
        if backends["processes"]["seconds"] > 0
        else 0.0,
        "best_backend_speedup": round(
            max(
                seed_seconds / backends[backend]["seconds"]
                for backend in BACKENDS
                if backends[backend]["seconds"] > 0
            ),
            2,
        ),
        "ann_pruning": ann,
    }
    return report


def print_report(report: Dict) -> None:
    config = report["config"]
    rows = [["seed per-pair baseline (s)", report["seed_baseline_seconds"], "", ""]]
    for backend in BACKENDS:
        data = report["backends"][backend]
        rows.append(
            [
                f"{backend} (s)",
                data["seconds"],
                data["num_similarity_edges"],
                round(report["seed_baseline_seconds"] / data["seconds"], 2)
                if data["seconds"]
                else "",
            ]
        )
    ann = report["ann_pruning"]
    rows.append(
        ["ann exact vs pruned (s)", ann["exact_seconds"], ann["pruned_seconds"], ann["speedup"]]
    )
    print(
        format_report_table(
            ["metric", "baseline", "optimized", "speedup"],
            rows,
            title=f"Parallel governor bench ({config['num_tables']} tables, "
            f"{config['workers']} workers)",
        )
    )
    print(f"identical graphs across backends: {report['backends']['identical_graphs']}")
    print(
        f"construction speedup (processes vs seed baseline): {report['construction_speedup']}x; "
        f"ANN pruning ratio {ann['pruning_ratio']}, edge recall {ann['edge_recall']}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=50)
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args()
    if args.tables < 2:
        parser.error("--tables must be >= 2 (similarity needs at least one table pair)")
    report = run_benchmark(args.tables, args.rows, args.repetitions, workers=args.workers)
    print_report(report)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")


# ------------------------------------------------------------ pytest smoke
def test_parallel_governor_smoke():
    """Smoke configuration: backends agree and the optimized stack wins.

    At smoke scale the process pool's startup overhead can exceed the tiny
    workload, so the speedup floor is asserted on the best backend; the
    committed full-size run pins the processes-backend headline.
    """
    num_tables = 6 if os.environ.get("REPRO_BENCH_SMOKE") else 10
    report = run_benchmark(num_tables=num_tables, rows=40, repetitions=2, workers=2)
    assert report["backends"]["identical_graphs"]
    assert report["best_backend_speedup"] > 1.0
    assert report["construction_speedup"] > 0.0
    assert report["ann_pruning"]["edge_recall"] >= 0.9


if __name__ == "__main__":
    main()
