"""Benchmark — the SPARQL executor over dictionary-encoded storage.

Measures the one production executor on a governed lake:

* **Per-query latency, two backends**: discovery-style multi-pattern
  queries and aggregate-heavy dashboard queries over a ~200-table governed
  lake, run by ``SPARQLEngine`` on the in-memory store and on the same lake
  saved to sqlite and reopened.  Absolute seconds per query (median of N)
  plus the ``multi_pattern`` / ``aggregate_heavy`` totals.
* **Backend parity**: both backends must return the same rows (modulo
  order) — ids assigned by the persistent term dictionary round-trip
  (``rows_identical_across_backends``, gated by ``check_regressions.py``).
* **Memo counters**: hits / misses of the pattern-lookup memos
  and the FILTER verdict tables over one pass of the query set.
* **Memory**: retained bytes of the id-encoded storage (int-triple indexes +
  one shared term dictionary) versus a seed-style term-triple store with
  per-graph term objects (how the pre-dictionary sqlite reload materialized
  terms) — the string-dedup RSS drop.

Row-for-row correctness against the naive reference evaluator is pinned by
``tests/test_sparql_batched.py``, not here.

Results are written to ``benchmarks/BENCH_sparql.json`` (gated against
``baselines/BENCH_sparql.json`` by ``check_regressions.py``).  Run standalone::

    PYTHONPATH=src python benchmarks/bench_sparql_engine.py --tables 200

or as a pytest smoke test (small sizes, used by ``run_all.py --smoke``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_sparql_engine.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from repro.datagen import generate_discovery_benchmark
from repro.eval import format_report_table
from repro.kg.governor import KGGovernor
from repro.rdf import QuadStore
from repro.sparql import SPARQLEngine

RESULT_PATH = Path(__file__).parent / "BENCH_sparql.json"

#: Discovery-style governance queries.  ``multi_pattern`` marks the queries
#: counted into the join total (2+ triple patterns).
QUERIES: Dict[str, Dict] = {
    "tables": {
        "multi_pattern": False,
        "sparql": "SELECT ?t WHERE { ?t a kglids:Table }",
    },
    "columns_of_table": {
        "multi_pattern": True,
        "sparql": """
            SELECT ?col ?name WHERE {
                ?col kglids:hasName ?name .
                ?col a kglids:Column .
                ?col kglids:isPartOf ?table .
                ?table kglids:hasName "table_0_0" .
            }
        """,
    },
    "joined_metadata": {
        "multi_pattern": True,
        "sparql": """
            SELECT ?col ?colname ?tablename WHERE {
                ?col kglids:hasName ?colname .
                ?col a kglids:Column .
                ?col kglids:isPartOf ?table .
                ?table kglids:hasName ?tablename .
                ?table kglids:isPartOf ?dataset .
                ?dataset kglids:hasName "economics_0" .
            }
        """,
    },
    "lake_metadata": {
        "multi_pattern": True,
        "sparql": """
            SELECT ?col ?colname ?tablename WHERE {
                ?col kglids:hasName ?colname .
                ?col a kglids:Column .
                ?col kglids:isPartOf ?table .
                ?table kglids:hasName ?tablename .
            }
        """,
    },
    "similar_pairs_with_names": {
        "multi_pattern": True,
        "sparql": """
            SELECT ?n1 ?n2 ?score WHERE {
                << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
                ?c1 kglids:hasName ?n1 .
                ?c2 kglids:hasName ?n2 .
            }
        """,
    },
    "similarity_neighborhood": {
        "multi_pattern": True,
        "sparql": """
            SELECT ?t ?c2 ?score WHERE {
                ?c1 kglids:isPartOf ?t .
                << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
                ?c2 a kglids:Column .
            }
        """,
    },
    "type_histogram": {
        "multi_pattern": True,
        "sparql": """
            SELECT ?type (COUNT(?col) AS ?n) WHERE {
                ?col a kglids:Column .
                ?col kglids:hasFineGrainedType ?type .
            } GROUP BY ?type ORDER BY ?type
        """,
    },
    # --- aggregate-heavy dashboard set: many result rows, collation-bound.
    # These isolate the GROUP BY / ORDER BY / DISTINCT tail, so they count
    # into the ``aggregate_heavy`` total rather than the multi-pattern one.
    "type_dashboard": {
        "multi_pattern": False,
        "aggregate": True,
        "sparql": """
            SELECT ?type (COUNT(?col) AS ?n) (COUNT(DISTINCT ?table) AS ?tables)
            WHERE {
                ?col a kglids:Column .
                ?col kglids:hasFineGrainedType ?type .
                ?col kglids:isPartOf ?table .
            } GROUP BY ?type ORDER BY DESC(?n) ?type
        """,
    },
    "table_width_dashboard": {
        "multi_pattern": False,
        "aggregate": True,
        "sparql": """
            SELECT ?table (COUNT(?col) AS ?cols) WHERE {
                ?col a kglids:Column .
                ?col kglids:isPartOf ?table .
            } GROUP BY ?table ORDER BY DESC(?cols) ?table
        """,
    },
    "similarity_dashboard": {
        "multi_pattern": False,
        "aggregate": True,
        "sparql": """
            SELECT ?c1 (COUNT(?c2) AS ?n) (AVG(?score) AS ?mean)
                   (SUM(?score) AS ?total) WHERE {
                << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
            } GROUP BY ?c1 ORDER BY DESC(?mean) ?c1
        """,
    },
    "strong_similarity_profile": {
        "multi_pattern": False,
        "aggregate": True,
        # Single-variable FILTER below the aggregate: exercises the memoized
        # filter pushdown (the report's ``filter_memo`` counters come from
        # the distinct-score verdicts cached here).
        "sparql": """
            SELECT ?c1 (COUNT(?c2) AS ?n) WHERE {
                << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
                FILTER(?score >= 0.9)
            } GROUP BY ?c1 ORDER BY DESC(?n) ?c1
        """,
    },
    "ordered_column_names": {
        "multi_pattern": False,
        "aggregate": True,
        "sparql": """
            SELECT ?col ?name WHERE {
                ?col a kglids:Column .
                ?col kglids:hasName ?name .
            } ORDER BY ?name ?col
        """,
    },
    "distinct_similar_names": {
        "multi_pattern": False,
        "aggregate": True,
        "sparql": """
            SELECT DISTINCT ?n1 ?n2 WHERE {
                << ?c1 kglids:hasContentSimilarity ?c2 >> kglids:withCertainty ?score .
                ?c1 kglids:hasName ?n1 .
                ?c2 kglids:hasName ?n2 .
            }
        """,
    },
    "union_name_profile": {
        "multi_pattern": False,
        "aggregate": True,
        "sparql": """
            SELECT ?x ?name WHERE {
                { ?x a kglids:Table . ?x kglids:hasName ?name . }
                UNION { ?x a kglids:Column . ?x kglids:hasName ?name . }
            } ORDER BY ?name ?x
        """,
    },
}


def _govern_lake(num_tables: int, rows: int, seed: int) -> KGGovernor:
    partitions = 5 if num_tables >= 25 else 3
    base_tables = (num_tables + partitions - 1) // partitions
    benchmark = generate_discovery_benchmark(
        "tus_small", seed=seed, base_tables=base_tables, partitions=partitions, rows=rows
    )
    lake = benchmark.lake
    governor = KGGovernor()
    for table in lake.tables()[:num_tables]:
        governor.add_table(table, dataset_name=table.dataset)
    return governor


def _value_key(value) -> str:
    # SUM/AVG add floats in row order; a reopened sqlite store iterates
    # annotation rows differently than the in-memory build, so cross-backend
    # totals agree only up to float-addition reassociation.  12 significant
    # digits masks that last-ulp wobble while still catching real drift.
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _rows_key(result) -> List:
    return sorted(
        tuple(sorted((key, _value_key(value)) for key, value in row.items()))
        for row in result.rows
    )


# ------------------------------------------------------------------- timing
def time_queries(stores: Dict[str, QuadStore], repetitions: int) -> Dict:
    """Per-query latency of the engine over each backend; rows must agree."""
    engines = {label: SPARQLEngine(store) for label, store in stores.items()}
    results: Dict[str, Dict] = {}
    identical = True
    for name, spec in QUERIES.items():
        keys = {}
        timings = {}
        for label, engine in engines.items():
            # The parity evaluation doubles as the warm-up; the timing is
            # the median of the remaining samples (single runs are dominated
            # by allocator/GC noise at 100k-row results).
            keys[label] = _rows_key(engine.select(spec["sparql"]))
            samples = []
            for _ in range(repetitions):
                started = time.perf_counter()
                engine.select(spec["sparql"])
                samples.append(time.perf_counter() - started)
            samples.sort()
            timings[label] = samples[len(samples) // 2]
        if len({str(rows) for rows in keys.values()}) != 1:
            identical = False
        results[name] = {
            "rows": len(keys["memory"]),
            "multi_pattern": spec["multi_pattern"],
            "aggregate_heavy": spec.get("aggregate", False),
            "seconds": {label: round(value, 6) for label, value in timings.items()},
        }

    def _totals(flag: str) -> Dict[str, Dict[str, float]]:
        totals: Dict[str, float] = defaultdict(float)
        for entry in results.values():
            if entry[flag]:
                for label, value in entry["seconds"].items():
                    totals[label] += value
        return {"seconds": {label: round(value, 6) for label, value in totals.items()}}

    return {
        "queries": results,
        "multi_pattern": _totals("multi_pattern"),
        "aggregate_heavy": _totals("aggregate_heavy"),
        "rows_identical_across_backends": identical,
    }


# ------------------------------------------------------------------- memory
def measure_memory(store: QuadStore) -> Dict:
    """Retained bytes and durable bytes: id-encoded vs seed-style storage.

    Both builds materialize the full index structure (positional + partial
    quoted-triple indexes + per-predicate cardinality statistics) from the
    same durable text rows.  The seed-style build replays what the
    pre-dictionary sqlite reload kept: term-object triples with a *per-graph*
    term cache, so a term shared by N graphs existed N times.  The id build
    replays the current storage: one shared dictionary plus int-triple
    indexes.  ``disk`` compares the two sqlite layouts on the same quads:
    three N-Triples text columns per row (pre-dictionary) vs a ``terms``
    table plus three-int rows — the string-dedup win is mostly *there* (every
    URI used to be spelled out once per referencing triple, per index row).
    """
    import sqlite3

    from collections import defaultdict as _defaultdict

    from repro.rdf.graph_index import GraphIndex
    from repro.rdf.terms import QuotedTriple, TermDictionary, parse_term, term_n3

    # The durable representation both builds start from.
    shards = {
        graph: [
            (term_n3(t.subject), term_n3(t.predicate), term_n3(t.object))
            for t in store.triples(graph=graph)
        ]
        for graph in store.graphs()
    }

    def build_seed_style():
        """PR-3-equivalent reload: term triples, term-keyed indexes + stats."""
        graphs = {}
        for graph, rows in shards.items():
            cache: Dict[str, object] = {}
            triples = set()
            by_subject = _defaultdict(set)
            by_predicate = _defaultdict(set)
            by_object = _defaultdict(set)
            by_quoted_subject = _defaultdict(set)
            by_quoted_object = _defaultdict(set)
            stats: Dict[object, Dict[str, Dict]] = {}
            for row in rows:
                terms = []
                for text in row:
                    term = cache.get(text)
                    if term is None:
                        term = cache[text] = parse_term(text)
                    terms.append(term)
                triple = tuple(terms)
                triples.add(triple)
                by_subject[triple[0]].add(triple)
                by_predicate[triple[1]].add(triple)
                by_object[triple[2]].add(triple)
                if isinstance(triple[0], QuotedTriple):
                    by_quoted_subject[triple[0].subject].add(triple)
                    by_quoted_object[triple[0].object].add(triple)
                entry = stats.setdefault(triple[1], {"subjects": {}, "objects": {}})
                entry["subjects"][triple[0]] = entry["subjects"].get(triple[0], 0) + 1
                entry["objects"][triple[2]] = entry["objects"].get(triple[2], 0) + 1
            graphs[graph] = (
                triples,
                by_subject,
                by_predicate,
                by_object,
                by_quoted_subject,
                by_quoted_object,
                stats,
            )
        return graphs

    def build_id_style():
        """Current reload: one shared dictionary, id-triple GraphIndexes."""
        dictionary = TermDictionary()
        graphs = {}
        for graph, rows in shards.items():
            index = GraphIndex(dictionary)
            for row in rows:
                index.add(
                    (
                        dictionary.encode(parse_term(row[0])),
                        dictionary.encode(parse_term(row[1])),
                        dictionary.encode(parse_term(row[2])),
                    )
                )
            graphs[graph] = index
        return dictionary, graphs

    def retained_bytes(build):
        tracemalloc.start()
        baseline = tracemalloc.get_traced_memory()[0]
        kept = build()
        retained = tracemalloc.get_traced_memory()[0] - baseline
        tracemalloc.stop()
        del kept
        return retained

    seed_bytes = retained_bytes(build_seed_style)
    id_bytes = retained_bytes(build_id_style)

    # Durable footprint of the same quads under both sqlite layouts.
    directory = Path(tempfile.mkdtemp(prefix="bench_sparql_disk_"))
    try:
        text_path = directory / "text.sqlite3"
        connection = sqlite3.connect(str(text_path))
        for position, rows in enumerate(shards.values()):
            connection.execute(
                f"CREATE TABLE quads_{position} (s TEXT, p TEXT, o TEXT,"
                " PRIMARY KEY (s, p, o)) WITHOUT ROWID"
            )
            connection.execute(
                f"CREATE INDEX quads_{position}_p ON quads_{position} (p)"
            )
            connection.executemany(
                f"INSERT OR IGNORE INTO quads_{position} VALUES (?, ?, ?)", rows
            )
        connection.commit()
        connection.close()
        text_disk = text_path.stat().st_size

        id_path = directory / "ids.sqlite3"
        connection = sqlite3.connect(str(id_path))
        dictionary: Dict[str, int] = {}
        connection.execute("CREATE TABLE terms (id INTEGER PRIMARY KEY, n3 TEXT)")
        for position, rows in enumerate(shards.values()):
            connection.execute(
                f"CREATE TABLE quads_{position} (s INTEGER, p INTEGER, o INTEGER,"
                " PRIMARY KEY (s, p, o)) WITHOUT ROWID"
            )
            connection.execute(
                f"CREATE INDEX quads_{position}_p ON quads_{position} (p)"
            )
            id_rows = []
            for row in rows:
                ids = []
                for term_text in row:
                    term_id = dictionary.get(term_text)
                    if term_id is None:
                        term_id = dictionary[term_text] = len(dictionary) + 1
                        connection.execute(
                            "INSERT INTO terms VALUES (?, ?)", (term_id, term_text)
                        )
                    ids.append(term_id)
                id_rows.append(tuple(ids))
            connection.executemany(
                f"INSERT OR IGNORE INTO quads_{position} VALUES (?, ?, ?)", id_rows
            )
        connection.commit()
        connection.close()
        id_disk = id_path.stat().st_size
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "resident": {
            "seed_style_bytes": seed_bytes,
            "id_encoded_bytes": id_bytes,
            "seed_to_id_ratio": round(seed_bytes / id_bytes, 3) if id_bytes else 0.0,
        },
        "disk": {
            "text_shard_bytes": text_disk,
            "id_shard_bytes": id_disk,
            "text_to_id_ratio": round(text_disk / id_disk, 3) if id_disk else 0.0,
        },
        "num_terms": len(store.dictionary),
        "num_term_slots": sum(3 * len(rows) for rows in shards.values()),
    }


# --------------------------------------------------------------------- main
def run_benchmark(num_tables: int, rows: int, repetitions: int, seed: int = 7) -> Dict:
    governor = _govern_lake(num_tables, rows, seed)
    store = governor.storage.graph
    report = {
        "config": {
            "num_tables": num_tables,
            "rows": rows,
            "repetitions": repetitions,
            "seed": seed,
            "num_triples": store.num_triples(),
        }
    }
    directory = Path(tempfile.mkdtemp(prefix="bench_sparql_"))
    try:
        governor.save(directory)
        reopened = QuadStore.sqlite(directory / "graph.sqlite3")
        try:
            report.update(time_queries({"memory": store, "sqlite": reopened}, repetitions))
        finally:
            reopened.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    report["memory"] = measure_memory(store)
    engine = SPARQLEngine(store)
    for spec in QUERIES.values():
        engine.select(spec["sparql"])
    stats = engine.stats()
    report["memo"] = stats["pattern_memo"]
    report["filter_memo"] = stats["filter_memo"]
    return report


def print_report(report: Dict) -> None:
    rows = []
    for name, entry in report["queries"].items():
        marker = " *" if entry["multi_pattern"] else (" +" if entry["aggregate_heavy"] else "")
        seconds = entry["seconds"]
        rows.append([f"{name}{marker}", entry["rows"], seconds["memory"], seconds["sqlite"]])
    for title, key in (
        ("multi-pattern total", "multi_pattern"),
        ("aggregate-heavy total", "aggregate_heavy"),
    ):
        seconds = report[key]["seconds"]
        rows.append([title, "-", seconds["memory"], seconds["sqlite"]])
    print(
        format_report_table(
            ["query (* join, + aggregate)", "rows", "memory (s)", "sqlite (s)"],
            rows,
            title=f"SPARQL executor bench ({report['config']['num_tables']} tables, "
            f"{report['config']['num_triples']} triples)",
        )
    )
    memory = report["memory"]
    print(
        f"identical rows across backends: {report['rows_identical_across_backends']}; "
        f"pattern memo {report['memo']}; filter memo {report['filter_memo']}"
    )
    print(
        f"resident: seed-style {memory['resident']['seed_style_bytes'] / 1e6:.1f}MB vs "
        f"id-encoded {memory['resident']['id_encoded_bytes'] / 1e6:.1f}MB "
        f"({memory['resident']['seed_to_id_ratio']}x); "
        f"disk: text shards {memory['disk']['text_shard_bytes'] / 1e6:.1f}MB vs "
        f"id shards {memory['disk']['id_shard_bytes'] / 1e6:.1f}MB "
        f"({memory['disk']['text_to_id_ratio']}x; {memory['num_terms']} distinct terms "
        f"for {memory['num_term_slots']} term slots)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=200)
    parser.add_argument("--rows", type=int, default=40)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--output", type=Path, default=RESULT_PATH)
    args = parser.parse_args()
    report = run_benchmark(args.tables, args.rows, args.repetitions)
    print_report(report)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")


# ------------------------------------------------------------ pytest smoke
def test_sparql_engine_smoke():
    """Smoke configuration: both backends answer every query identically and
    the report carries timings, memo counters and the disk dedup ratio."""
    num_tables = 16 if os.environ.get("REPRO_BENCH_SMOKE") else 24
    report = run_benchmark(num_tables=num_tables, rows=30, repetitions=2)
    assert report["rows_identical_across_backends"]
    assert all(entry["rows"] > 0 for entry in report["queries"].values())
    assert report["multi_pattern"]["seconds"]["memory"] > 0.0
    assert report["aggregate_heavy"]["seconds"]["sqlite"] > 0.0
    assert report["memo"]["misses"] > 0
    assert report["filter_memo"]["misses"] > 0
    assert report["memory"]["disk"]["text_to_id_ratio"] > 1.0


if __name__ == "__main__":
    main()
