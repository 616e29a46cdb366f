"""The four workloads: one table of sizes, and seed-derived op streams.

Every stream is a pure function of ``--seed`` (``random.Random`` only — no
clock, no hash order), so the same seed yields byte-identical op lists:
:func:`stream_digest` is what ``--check-repeat`` compares.  A stream is cut
into **blocks**: a block holds the same multiset of work in every run of a
workload (the seed draws the anchors and the order), so that blocks compare
with one another and a run's timings can be medians over its blocks.  A
run consumes a *prefix* of whole blocks: the untraced run takes what fits
in ``--seconds``, the traced run a fixed number (``traced_units``) so that
its counts repeat exactly.

Why each workload exists is recorded in ``BENCHMARK.json`` (``why``) and in
the README; the sizes below are what makes one run — the set-up, the
window, the checks — fit the driver's time budget on a 2-core host.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.datagen import (
    generate_automl_datasets,
    generate_cleaning_datasets,
    generate_transformation_datasets,
)
from repro.kg.ontology import DATASET_GRAPH, table_uri
from repro.serving import canonical_json

TableKey = Tuple[str, str]

#: The one table of sizes.  ``unit`` is the block — what the loop repeats,
#: what ``--ops`` counts and what every timing is a median over;
#: ``traced_units`` is how many of them the traced run executes (about one
#: ``run_seconds`` window at the seed commit); ``rss_block`` is the block
#: after which peak RSS is read — memory at a stated amount of work, not at
#: wherever the clock ended the window (every window holds more blocks than
#: that; one that does not is read at its end); ``tail`` is the percentile
#: taken *inside each block* for ``op_tail_ms``, chosen to fall inside the
#: block's slowest class of op and not on the edge between two.
SIZES: Dict[str, Dict[str, Any]] = {
    "ingest": {
        "unit": "block of 4 drift rounds",
        "lake_tables": 32,
        "rows": 60,
        "pipelines_per_table": 3,
        "drift": {"new": 2, "changed": 1, "deleted": 2},
        # Half a second: the host changes speed from one second to the next,
        # and a block has to fit between two changes to come out undisturbed.
        "block_rounds": 4,
        "rss_block": 15,
        "traced_units": 32,
        # Of a block's 4 round latencies: its second slowest, mostly.
        "tail": 75,
    },
    "serve": {
        "unit": "block of 100 calls",
        "lake_tables": 48,
        "rows": 60,
        "pipelines_per_table": 3,
        "zipf": 1.1,
        "block_mixes": 5,
        "rss_block": 20,
        "traced_units": 48,
        # The slowest class, `path`, is 5 calls in 100: p97.5 is its median.
        "tail": 97.5,
    },
    "serve_ingest": {
        "unit": "block of 2 writes and 40 calls",
        "lake_tables": 48,
        "rows": 60,
        "pipelines_per_table": 3,
        "zipf": 0.0,
        "block_mixes": 2,
        # Tables beyond the served lake that take turns being governed and
        # retracted: two whole bases.
        "stream_tables": 8,
        "rss_block": 30,
        "traced_units": 80,
        # 42 ops: the add above everything, then the two `path` calls; p95
        # is the lower of those two.
        "tail": 95,
    },
    "automate": {
        "unit": "pass over the pool of 3 sessions",
        "lake_tables": 40,
        "rows": 60,
        "pipelines_per_table": 3,
        "dataset_rows": 20,
        "automl": {"max_evaluations": 3, "cv": 2, "time_budget_seconds": None},
        "rss_block": 4,
        "traced_units": 9,
        # 18 calls, the 3 searches the slowest: p95 is mostly the middle one.
        "tail": 95,
    },
}

#: Toy sizes for ``--smoke`` and the harness test: every code path, no claim.
SMOKE: Dict[str, Dict[str, Any]] = {
    "ingest": {**SIZES["ingest"], "lake_tables": 8, "rss_block": 1, "traced_units": 1},
    "serve": {**SIZES["serve"], "lake_tables": 12, "block_mixes": 1, "rss_block": 1, "traced_units": 2},
    "serve_ingest": {**SIZES["serve_ingest"], "lake_tables": 12, "rss_block": 1, "traced_units": 2},
    "automate": {**SIZES["automate"], "lake_tables": 12, "dataset_rows": 12, "rss_block": 1, "traced_units": 1},
}

#: An op slower than this counts as failed (the remote client's own
#: socket timeout, so a hung call ends there).
OP_TIMEOUT_S = 30.0


def stream_digest(ops: Sequence[Any]) -> str:
    """sha256 of an op list's canonical JSON — equal digests, equal lists."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True, default=str).encode()).hexdigest()


# ------------------------------------------------------------------- anchors
def zipf_anchors(rng: random.Random, keys: Sequence[TableKey], exponent: float) -> Iterator[TableKey]:
    """Anchor tables drawn Zipf(``exponent``) over a seeded ranking of ``keys``.

    A few tables take most requests and a long tail is asked once: the
    repeat mass a plan or result cache can use is real, neither 100 % nor 0.
    ``exponent`` 0 is the uniform draw.
    """
    ranked = list(keys)
    rng.shuffle(ranked)
    cumulative = list(accumulate(1.0 / (rank ** exponent) for rank in range(1, len(ranked) + 1)))
    while True:
        yield rng.choices(ranked, cum_weights=cumulative)[0]


# ------------------------------------------------------------------ serve mix
#: Call classes per block of 20 ops.
SERVE_MIX = (
    ("unionable", 5),
    ("joinable", 4),
    ("keyword", 3),
    ("sparql_point", 3),
    ("sparql_join", 2),
    ("sparql_aggregate", 1),
    ("path", 1),
    ("library", 1),
)


def serve_call(kind: str, key: TableKey) -> Tuple[str, list]:
    """``(client method, args)`` of one call of class ``kind`` anchored at ``key``."""
    dataset, table = key
    if kind == "unionable":
        return "get_unionable_tables", [dataset, table, 10]
    if kind == "joinable":
        return "get_joinable_tables", [dataset, table, 10]
    if kind == "keyword":
        # The domain word of the dataset name, and the table name: one
        # conjunctive group OR one plain term, as in the paper's example.
        return "search_keywords", [[[dataset.rsplit("_", 1)[0], table], table]]
    if kind == "path":
        return "get_path_to_table", [dataset, table, 2]
    if kind == "library":
        return "get_top_k_library_used", [10]
    uri = str(table_uri(*key))
    if kind == "sparql_point":
        query = (
            f"SELECT ?column ?name ?type WHERE {{ GRAPH <{DATASET_GRAPH}> {{ "
            f"?column kglids:isPartOf <{uri}> . ?column kglids:hasName ?name . "
            "?column kglids:hasFineGrainedType ?type . } } ORDER BY ?name"
        )
    elif kind == "sparql_join":
        query = (
            f"SELECT ?name ?other ?score WHERE {{ GRAPH <{DATASET_GRAPH}> {{ "
            f"?column kglids:isPartOf <{uri}> . ?column kglids:hasName ?name . "
            "<< ?column kglids:hasContentSimilarity ?other >> kglids:withCertainty ?score . "
            "} } ORDER BY DESC(?score) ?name ?other LIMIT 25"
        )
    elif kind == "sparql_aggregate":
        query = (
            f"SELECT ?type (COUNT(?column) AS ?columns) WHERE {{ GRAPH <{DATASET_GRAPH}> {{ "
            "?column a kglids:Column . ?column kglids:hasFineGrainedType ?type . "
            f"?column kglids:isPartOf ?table . ?table kglids:isPartOf ?dataset . "
            f'?dataset kglids:hasName "{dataset}" . '
            "} } GROUP BY ?type ORDER BY DESC(?columns) ?type"
        )
    else:
        raise ValueError(f"unknown call class {kind!r}")
    return "query", [query]


def serve_ops(seed: int, keys: Sequence[TableKey], exponent: float) -> Iterator[Tuple[str, str, list]]:
    """The endless ``(class, method, args)`` stream of the two serve workloads."""
    rng = random.Random(seed)
    anchors = zipf_anchors(rng, keys, exponent)
    mix = [kind for kind, count in SERVE_MIX for _ in range(count)]
    while True:
        rng.shuffle(mix)
        for kind in mix:
            yield (kind,) + serve_call(kind, next(anchors))


#: Calls in one pass over :data:`SERVE_MIX`.
MIX_OPS = sum(count for _, count in SERVE_MIX)


def serve_blocks(
    seed: int,
    keys: Sequence[TableKey],
    exponent: float,
    mixes: int,
    stream: Sequence[TableKey] = (),
) -> Iterator[List[Tuple[str, str, list]]]:
    """The stream cut into blocks of ``mixes`` passes over the mix.

    With ``stream`` tables (``serve_ingest``) every block also holds two
    writes, sent to the writer and waited for like any other op: one of the
    stream tables is governed before the first half of the block's calls
    and retracted before the second, so every block commits twice, the
    replica pulls two deltas, and the lake ends each block the size it began
    — a block's cost does not grow with the number of blocks before it.
    The stream tables take turns.
    """
    ops = serve_ops(seed, keys, exponent)
    index = 0
    while True:
        block = [next(ops) for _ in range(mixes * MIX_OPS)]
        if stream:
            table = list(stream[index % len(stream)])
            half = len(block) // 2
            block = (
                [("write_add", "govern", table)] + block[:half]
                + [("write_retract", "retract", table)] + block[half:]
            )
        yield block
        index += 1


def identity_calls(keys: Sequence[TableKey], count: int = 32) -> List[Tuple[str, list]]:
    """``count`` requests whose answers must not depend on who serves them.

    Unordered SELECTs follow each store's physical id layout, so the SPARQL
    classes here carry a total ORDER BY.  The similarity APIs order by score
    only and scores tie (partitions of one base score 1.0), so they are asked
    without a cut-off (``k`` beyond the lake) and compared as row sets by
    :func:`same_answer`.
    """
    kinds = ("unionable", "joinable", "sparql_point", "sparql_join", "sparql_aggregate")
    step = max(1, len(keys) // count)
    calls = []
    for i in range(count):
        method, args = serve_call(kinds[i % len(kinds)], keys[(i * step) % len(keys)])
        calls.append((method, args[:2] + [10_000] if method.startswith("get_") else args))
    return calls


def same_answer(method: str, first: Any, second: Any) -> bool:
    """Byte-identical answers; for the score-ordered APIs, byte-identical row sets."""
    if method.startswith("get_"):
        def rows(table):
            return sorted(canonical_json(list(row)) for row in zip(*(c.values for c in table.columns)))

        return rows(first) == rows(second)
    return canonical_json(first) == canonical_json(second)


# ----------------------------------------------------------------- drift edits
@dataclass
class DriftEdit:
    """One round of edits to the lake directory (paths relative to its root)."""

    new: List[int]  # indices into the reserve tables
    changed: List[Tuple[str, int]]  # (relative path, data row to duplicate)
    deleted: List[str]

    def as_json(self) -> Dict[str, Any]:
        return {"new": self.new, "changed": self.changed, "deleted": self.deleted}


def drift_edits(
    seed: int,
    initial: Sequence[Tuple[str, int]],
    reserve: Sequence[Tuple[str, int]],
    shape: Dict[str, int],
) -> Iterator[DriftEdit]:
    """The stream of drift rounds over a lake directory.

    ``initial`` are ``(relative path, data rows)`` of the files present
    before round 1, ``reserve`` the same for the tables waiting to come in.
    Each round deletes ``deleted`` files, rewrites ``changed`` ones (one data
    row duplicated, so the table keeps its types) and brings ``new`` reserve
    tables in — as many out as in, so the lake keeps its size and a round's
    cost stays stationary.  The stream tracks the directory it describes and
    never reads it; it ends when the reserve does.
    """
    rng = random.Random(seed)
    present = dict(initial)
    for first in range(0, len(reserve) - shape["new"] + 1, shape["new"]):
        deleted = rng.sample(sorted(present), shape["deleted"])
        for path in deleted:
            del present[path]
        changed = []
        for path in rng.sample(sorted(present), shape["changed"]):
            changed.append((path, rng.randrange(present[path])))
            present[path] += 1
        new = list(range(first, first + shape["new"]))
        present.update(reserve[index] for index in new)
        yield DriftEdit(new=new, changed=changed, deleted=deleted)


def apply_drift(root: Path, reserve_root: Path, edit: DriftEdit, reserve: Sequence[Tuple[str, int]]) -> None:
    """Carry one :class:`DriftEdit` out on ``root``.

    New tables are *moved* in from ``reserve_root`` (written during set-up),
    so the window pays for a rename, not for generating a table.
    """
    for relative in edit.deleted:
        (root / relative).unlink()
    for relative, row in edit.changed:
        path = root / relative
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines + [lines[1 + row]]), encoding="utf-8")
    for index in edit.new:
        relative = reserve[index][0]
        target = root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        (reserve_root / relative).rename(target)


# ------------------------------------------------------------------- sessions
_SESSION_KINDS = (
    generate_cleaning_datasets,
    generate_transformation_datasets,
    generate_automl_datasets,
)


def session_pool(rows: int) -> list:
    """The unseen tables of the ``automate`` sessions: one per generator.

    The same three for every seed.  Which estimator a search settles on —
    pure-Python gradient boosting, ~1 s on 20 rows, or a random forest,
    ~0.15 s — depends on the table, so with per-seed tables the cost of a
    session differed several-fold between seeds, and that, not the program,
    set every timing.  ``count=4`` and the first element, because the
    generators size their *last three* datasets far larger; the first is
    the plain one.
    """
    return [generator(count=4, seed=0, base_rows=rows)[0] for generator in _SESSION_KINDS]


def session_blocks(seed: int, rows: int) -> Iterator[list]:
    """Endless passes over :func:`session_pool`, each in an order the seed draws."""
    rng = random.Random(seed)
    pool = session_pool(rows)
    while True:
        yield rng.sample(pool, len(pool))
