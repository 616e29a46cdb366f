"""Benchmark — the queued governor service: throughput and reader latency.

Models the workload the service API exists for: many clients each submit a
single table, while discovery readers keep querying the LiDS graph.

* **Ingestion throughput** — the 50-table lake is governed three ways:
  synchronously per table (one blocking ``add_data_lake`` per client
  request — the pre-service behaviour under this workload), synchronously
  as one bulk lake (the best case a blocking API can reach), and through
  ``GovernorService.submit_table`` (per-client submissions the scheduler
  coalesces into micro-batches).  The headline ``ingest_speedup_vs_sync``
  compares the service against the per-table synchronous path; all three
  runs must produce byte-identical graphs (``graphs_identical``).
* **Undo log** — the transactional write path records an inverse for
  every mutation so a failing batch rolls back instead of committing a
  torn prefix.  A write-heavy store-level loop (batched adds + removes) is
  timed (best-of-N, ``undo_log.with_undo_seconds``) and
  ``undo_log.rollback_identical`` checks an aborted batch leaves the store
  byte-identical — the boolean is gated by ``check_regressions.py``.
* **Reader latency during ingestion** — a *second* service run (fresh
  governor) ingests the same lake while reader threads run discovery
  queries (``get_unionable_tables`` + a metadata join) and record per-query
  latency; p50/p95 quantify how long the commit batches make readers wait.
  The same queries on the idle, fully-governed graph give the baseline.
  Latency is measured in its own phase because hot-loop readers contend on
  the GIL: mixing them into the throughput phase would charge the service
  for CPU the blocking baselines never share (a blocking governor cannot
  serve readers mid-ingest at all — that is the point of the service).

Results are written to ``benchmarks/BENCH_async.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_async_governor.py --tables 50

or as a pytest smoke test (small sizes, used by ``run_all.py``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_async_governor.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List

from repro.datagen import generate_discovery_benchmark
from repro.eval import format_report_table
from repro.interfaces import LiDSClient
from repro.kg import GovernorService, KGGovernor
from repro.rdf import Literal, QuadStore, URIRef
from repro.rdf.serialize import serialize_nquads
from repro.tabular import DataLake

RESULT_PATH = Path(__file__).parent / "BENCH_async.json"

METADATA_QUERY = """
    SELECT ?col ?colname ?tablename WHERE {
        ?col kglids:hasName ?colname .
        ?col a kglids:Column .
        ?col kglids:isPartOf ?table .
        ?table kglids:hasName ?tablename .
    }
"""


def _generate_lake(num_tables: int, rows: int, seed: int) -> DataLake:
    """A lake of ``num_tables`` partitioned tables with overlapping schemas."""
    partitions = 5 if num_tables >= 25 else 3
    base_tables = (num_tables + partitions - 1) // partitions
    benchmark = generate_discovery_benchmark(
        "tus_small", seed=seed, base_tables=base_tables, partitions=partitions, rows=rows
    )
    tables = benchmark.lake.tables()[:num_tables]
    lake = DataLake("bench_async")
    for table in tables:
        lake.add_table(table.dataset, table)
    return lake


def _quantile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _reader_loop(
    client: LiDSClient,
    probe: tuple,
    stop: threading.Event,
    latencies: List[float],
    errors: List[BaseException],
) -> None:
    dataset, table = probe
    while not stop.is_set():
        started = time.perf_counter()
        try:
            client.get_unionable_tables(dataset, table)
            client.storage.query(METADATA_QUERY)
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)
            return
        latencies.append(time.perf_counter() - started)


def _undo_write_workload(store: QuadStore, batches: int, triples: int) -> None:
    """A write-heavy batched loop: adds, annotations and removes."""
    for batch in range(batches):
        graph = URIRef(f"http://bench.local/graph/{batch % 4}")
        with store.write_batch():
            for index in range(triples):
                subject = URIRef(f"http://bench.local/s{index % 48}")
                predicate = URIRef(f"http://bench.local/p{index % 7}")
                store.add(subject, predicate, Literal(f"{batch}:{index}"), graph=graph)
            for index in range(0, triples, 8):
                store.remove(
                    URIRef(f"http://bench.local/s{index % 48}"),
                    URIRef(f"http://bench.local/p{index % 7}"),
                    Literal(f"{batch}:{index}"),
                    graph=graph,
                )


def measure_undo_log(batches: int = 30, triples: int = 150, repeats: int = 5) -> Dict:
    """Time the batched write loop (best-of-N) and check the rollback invariant.

    Best-of-N is noise-robust: the minimum of repeated single-threaded runs
    converges on the true cost, while means drag in scheduler hiccups.
    """
    best = float("inf")
    for _ in range(repeats):
        store = QuadStore()
        started = time.perf_counter()
        _undo_write_workload(store, batches, triples)
        best = min(best, time.perf_counter() - started)

    # Rollback invariant: an aborted batch leaves the store byte-identical.
    store = QuadStore()
    _undo_write_workload(store, batches=2, triples=50)
    before = serialize_nquads(store)
    try:
        with store.write_batch():
            _undo_write_workload(store, batches=1, triples=50)
            raise RuntimeError("bench abort")
    except RuntimeError:
        pass
    rollback_identical = serialize_nquads(store) == before

    return {
        "with_undo_seconds": round(best, 4),
        "rollback_identical": rollback_identical,
    }


def run_benchmark(num_tables: int, rows: int, readers: int, seed: int = 7) -> Dict:
    lake = _generate_lake(num_tables, rows, seed)
    # Warm process-wide caches (word model vectors, NER) so no timed run
    # pays one-off misses the others skip.
    KGGovernor().add_data_lake(_generate_lake(2, rows, seed + 1))

    # ------------------------------------------- sync baseline: per table
    started = time.perf_counter()
    per_table = KGGovernor()
    for table in lake.tables():
        single = DataLake("bench_async")
        single.add_table(table.dataset, table)
        per_table.add_data_lake(single)
    sync_per_table_seconds = time.perf_counter() - started

    # ------------------------------------------- sync baseline: bulk lake
    started = time.perf_counter()
    bulk = KGGovernor()
    bulk.add_data_lake(_generate_lake(num_tables, rows, seed))
    sync_bulk_seconds = time.perf_counter() - started

    # ------------------------------------------- service ingestion throughput
    service = GovernorService()
    started = time.perf_counter()
    tickets = [
        service.submit_table(table, table.dataset)
        for table in _generate_lake(num_tables, rows, seed).tables()
    ]
    for ticket in tickets:
        ticket.result(timeout=600)
    async_seconds = time.perf_counter() - started
    stats = dict(service.stats)
    throughput_graph = serialize_nquads(service.governor.storage.graph)
    service.close()
    service.governor.close()

    # ------------------------------------------- reader latency during ingest
    probe = (lake.tables()[0].dataset, lake.tables()[0].name)
    latency_service = GovernorService()
    client = LiDSClient(latency_service)
    stop = threading.Event()
    latencies: List[float] = []
    errors: List[BaseException] = []
    reader_threads = [
        threading.Thread(
            target=_reader_loop, args=(client, probe, stop, latencies, errors)
        )
        for _ in range(readers)
    ]
    for thread in reader_threads:
        thread.start()
    started = time.perf_counter()
    tickets = [
        latency_service.submit_table(table, table.dataset)
        for table in _generate_lake(num_tables, rows, seed).tables()
    ]
    for ticket in tickets:
        ticket.result(timeout=600)
    async_with_readers_seconds = time.perf_counter() - started
    stop.set()
    for thread in reader_threads:
        thread.join()

    # ------------------------------------------- idle reader baseline
    idle_stop = threading.Event()
    idle_latencies: List[float] = []
    idle_thread = threading.Thread(
        target=_reader_loop, args=(client, probe, idle_stop, idle_latencies, errors)
    )
    idle_thread.start()
    time.sleep(min(1.0, async_seconds / 4 + 0.1))
    idle_stop.set()
    idle_thread.join()

    graphs_identical = (
        throughput_graph
        == serialize_nquads(latency_service.governor.storage.graph)
        == serialize_nquads(per_table.storage.graph)
        == serialize_nquads(bulk.storage.graph)
    )
    latency_service.close()

    report = {
        "config": {
            "num_tables": len(lake.tables()),
            "rows": rows,
            "readers": readers,
            "seed": seed,
            "cpu_count": os.cpu_count(),
        },
        "sync_per_table_seconds": round(sync_per_table_seconds, 4),
        "sync_bulk_seconds": round(sync_bulk_seconds, 4),
        "async_seconds": round(async_seconds, 4),
        "async_with_readers_seconds": round(async_with_readers_seconds, 4),
        "async_tables_per_second": round(num_tables / async_seconds, 2)
        if async_seconds > 0
        else 0.0,
        # Headline: the service (per-client submissions, coalesced into
        # micro-batches) vs the blocking per-client path on the same lake.
        "ingest_speedup_vs_sync": round(sync_per_table_seconds / async_seconds, 2)
        if async_seconds > 0
        else 0.0,
        # Informational: how close the coalesced stream gets to the bulk
        # one-shot ideal (not named *speedup*: values near 1.0 are expected
        # and would only gate on noise).
        "throughput_vs_bulk_ratio": round(sync_bulk_seconds / async_seconds, 3)
        if async_seconds > 0
        else 0.0,
        "scheduler": {
            "batches": stats["batches"],
            "coalesced": stats["coalesced"],
            "submitted": stats["submitted"],
        },
        "readers": {
            "queries_during_ingestion": len(latencies),
            "errors": len(errors),
            "p50_ms_during_ingestion": round(_quantile(latencies, 0.50) * 1000, 2),
            "p95_ms_during_ingestion": round(_quantile(latencies, 0.95) * 1000, 2),
            "p50_ms_idle": round(_quantile(idle_latencies, 0.50) * 1000, 2),
            "p95_ms_idle": round(_quantile(idle_latencies, 0.95) * 1000, 2),
        },
        "graphs_identical": graphs_identical,
        "undo_log": measure_undo_log(),
    }
    per_table.close()
    bulk.close()
    return report


def print_report(report: Dict) -> None:
    config = report["config"]
    readers = report["readers"]
    rows = [
        ["sync per-table govern (s)", report["sync_per_table_seconds"], ""],
        ["sync bulk govern (s)", report["sync_bulk_seconds"], ""],
        [
            "service submit_table x N (s)",
            report["async_seconds"],
            report["ingest_speedup_vs_sync"],
        ],
        [
            "service ingest + hot readers (s)",
            report["async_with_readers_seconds"],
            "",
        ],
        ["reader p50 during ingest (ms)", readers["p50_ms_during_ingestion"], ""],
        ["reader p95 during ingest (ms)", readers["p95_ms_during_ingestion"], ""],
        ["reader p50 idle (ms)", readers["p50_ms_idle"], ""],
        ["reader p95 idle (ms)", readers["p95_ms_idle"], ""],
        ["batched write loop (s)", report["undo_log"]["with_undo_seconds"], ""],
    ]
    print(
        format_report_table(
            ["metric", "value", "speedup"],
            rows,
            title=f"Async governor bench ({config['num_tables']} tables, "
            f"{config['readers']} readers)",
        )
    )
    print(
        f"ingest speedup vs per-table sync {report['ingest_speedup_vs_sync']}x; "
        f"bulk ratio {report['throughput_vs_bulk_ratio']}; graphs identical: "
        f"{report['graphs_identical']}; reader errors: {readers['errors']}; "
        f"rollback identical: {report['undo_log']['rollback_identical']}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=50)
    parser.add_argument("--rows", type=int, default=60)
    parser.add_argument("--readers", type=int, default=2)
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args()
    if args.tables < 2:
        parser.error("--tables must be >= 2 (similarity needs at least one table pair)")
    report = run_benchmark(args.tables, args.rows, args.readers)
    print_report(report)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")


# ------------------------------------------------------------ pytest smoke
def test_async_governor_smoke():
    """Smoke configuration: queued ingestion must not lose to blocking calls.

    The acceptance bar (ingestion throughput >= the synchronous path on a
    50-table lake) is held by the committed full-size BENCH_async.json via
    check_regressions.py; the smoke sizes only assert correctness plus a
    loose throughput floor robust to CI noise.
    """
    num_tables = 10 if os.environ.get("REPRO_BENCH_SMOKE") else 16
    report = run_benchmark(num_tables=num_tables, rows=40, readers=2)
    assert report["graphs_identical"]
    assert report["readers"]["errors"] == 0
    assert report["readers"]["queries_during_ingestion"] > 0
    assert report["ingest_speedup_vs_sync"] >= 0.8
    assert report["scheduler"]["coalesced"] > 0
    assert report["undo_log"]["rollback_identical"]


if __name__ == "__main__":
    main()
