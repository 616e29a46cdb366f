"""The dependency line: CI installs ``numpy scipy pytest hypothesis`` only.

``repro.interfaces`` used to import ``networkx`` at module top, which no CI
job installs.  Every ``repro`` module is imported here in a subprocess with
``networkx`` blocked, so the check does not depend on what this machine
happens to have installed.

The same file holds the other "what ``src/`` may not contain" checks: one tree
implementation in ``repro.ml``, one write path in ``repro.rdf`` / ``repro.kg``,
a line budget for ``repro.rdf`` + ``repro.sparql``, no sqlite index that
nothing reads, no per-call SPARQL behind the similarity and library discovery
calls, one backend base class that a durable backend and the fault wrapper do
not restate, one term dictionary, one way a replica catches up, one way it
applies what it pulls, no capacity-bounded memo in the query engine, one
keep-and-drop rule for state kept per store version, and paper scripts that
rank through the shipped client.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

PROBE = """
import importlib, pkgutil, sys
sys.modules["networkx"] = None  # any `import networkx` now raises ImportError
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
"""


def test_every_module_imports_without_networkx():
    source = Path(__file__).resolve().parent.parent / "src"
    finished = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr


def test_one_tree_implementation_in_src():
    """No second path in ``src/``: the node-web CART lives on only as the oracle.

    ``repro.ml``'s trees are flat arrays that a whole matrix descends level by
    level; ``tests/ml_tree_oracle.py`` keeps the seed's ``_Node`` web, its
    per-threshold split loop and its row-by-row descent for the parity tests.
    """
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "ml"
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"class\s+_(Node|TreeBuilder)\b", source), f"{path.name} defines a node-web tree"
    for name in ("tree.py", "ensemble.py"):
        source = (package / name).read_text()
        loops = re.findall(r"for\s+\w+\s+in\s+(?:range\((?:len\()?X\b|thresholds\b)[^\n]*", source)
        assert not loops, f"{name} loops over rows or thresholds in Python: {loops}"


def _functions(path: Path):
    """``(name, node, source)`` of every function defined in a module, nested too."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, ast.get_source_segment(source, node)


def _calls_in_loops(path: Path, pattern: str):
    """Source of every call matching ``pattern`` that sits inside a ``for`` / ``while`` body."""
    source = path.read_text()
    found = []
    for loop in ast.walk(ast.parse(source)):
        if isinstance(loop, (ast.For, ast.While, ast.comprehension)):
            body = loop.body + loop.orelse if not isinstance(loop, ast.comprehension) else []
            for statement in body:
                for node in ast.walk(statement):
                    if isinstance(node, ast.Call):
                        text = ast.get_source_segment(source, node)
                        if re.match(pattern, text):
                            found.append(text.splitlines()[0])
    return found


def test_one_write_path_in_store():
    """No second write path in ``src/``: per-quad writers live on only as the oracle.

    ``QuadStore`` has one insert internal and one delete internal; ``add``,
    ``add_many``, ``annotate``, ``remove``, ``retract_nodes`` and
    ``replace_nodes`` are expressed over them, so the
    row bookkeeping (undo entries, delta-log ops, change marks, the mutation
    counter) is written once, and every delete is a row delete.  The KG writers build a row list
    and make one call;
    ``tests/store_write_oracle.py`` keeps the per-quad loops, and
    ``tests/colr_oracle.py`` the md5 per n-gram occurrence.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    store = list(_functions(source / "rdf" / "store.py"))

    def mentioning(pattern: str):
        return {name for name, _, text in store if re.search(pattern, text)}

    # Undo entries: rows in _log_rows, whole-graph drops in remove_graph.
    assert mentioning(r"_undo\.(append|extend)\(") == {"_log_rows", "remove_graph"}
    assert mentioning(r"_pending_ops\.(append|extend)\(") == {"_log_rows", "remove_graph"}
    assert mentioning(r"\.graph_changed\(") == {"_log_rows"}
    assert mentioning(r"self\._log_rows\(") == {"_insert_rows", "_delete_rows"}
    assert mentioning(r"_backend\.quads_added\(") == {"_insert_rows"}
    assert mentioning(r"_backend\.quads_removed\(") == {"_delete_rows"}
    for name in ("dataset_graph.py", "governor.py", "pipeline_graph.py", "linker.py"):
        loops = _calls_in_loops(source / "kg" / name, r"(\w+\.)*\w*(store|graph|snapshot)\w*\.(add|annotate|remove)\(")
        assert not loops, f"kg/{name} writes quad by quad inside a loop: {loops}"
    colr = source / "embeddings" / "colr.py"
    assert not _calls_in_loops(colr, r"hashlib\."), "embeddings/colr.py hashes inside a loop"
    for name, node, text in _functions(colr):
        if "hashlib." in text and _calls_in_loops(colr, rf"{name}\("):
            decorators = [ast.unparse(decorator) for decorator in node.decorator_list]
            assert "functools.cache" in decorators, f"colr.{name} hashes once per call, in a loop"


def test_dataset_graph_is_written_through_replace_nodes():
    """A refresh has one code path: every dataset-graph write in ``kg/`` —
    add, refresh, retract — is one ``QuadStore.replace_nodes`` call, and
    none retracts a footprint to write it back."""
    kg = Path(__file__).resolve().parent.parent / "src" / "repro" / "kg"
    for path in kg.glob("*.py"):
        source = path.read_text()
        assert "retract_nodes(" not in source, f"kg/{path.name} retracts outside replace_nodes"
        assert not re.search(r"add_many\([^)]*DATASET_GRAPH", source), f"kg/{path.name} adds to the dataset graph"
    for name in ("dataset_graph.py", "governor.py"):
        assert "replace_nodes(" in (kg / name).read_text()


def test_rdf_sparql_line_budget():
    """``repro.rdf`` + ``repro.sparql`` stay within their line budget.

    The storage and query layers are the largest part of ``src/`` and the
    place where mode flags, caches and fallback paths accumulate; the budget
    makes growth a deliberate edit of this number instead of a drift.
    """
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    lines = sum(
        len(path.read_text().splitlines())
        for name in ("rdf", "sparql")
        for path in (package / name).glob("*.py")
    )
    assert lines <= 6048, f"rdf/ + sparql/ is {lines} lines (budget 6,048)"


def test_one_per_version_memo_rule():
    """State kept per ``QuadStore.version`` lives in ``VersionMemo`` alone.

    The SPARQL answers, the wire frames, the library roll-up and the corpus
    prior book each hold one memo; none of their modules reads a version to
    compare with one it kept, and the hand-written bookkeeping is gone.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    gone = {"_answers_version", "_frames_version", "_answer_rows", "frame_bytes", "frame_hits", "frame_misses", "_frames_lock"}
    for name in ("sparql/engine.py", "serving/server.py", "interfaces/api.py", "automl/kgpip.py"):
        text = (source / name).read_text()
        assert "VersionMemo(" in text, f"{name} keeps per-version state without VersionMemo"
        # No ``store.version`` read at all, so none to compare with a kept one
        # (a follower's pinned ``commit_version`` in a delta pull is no memo).
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute):
                assert node.attr != "version", f"{name}:{node.lineno} reads a store version"
    for path in sorted(source.rglob("*.py")):
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        assert not names & gone, f"{path.relative_to(source)}: {sorted(names & gone)}"


def _classes(path: Path):
    """``name -> (base names, method names)`` of every class a module defines."""
    return {
        node.name: (
            [ast.unparse(base) for base in node.bases],
            {item.name for item in node.body if isinstance(item, ast.FunctionDef)},
        )
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }


def test_one_term_dictionary():
    """``TermDictionary`` is the only term dictionary class in ``src/``.

    Every backend interns a term by its N-Triples spelling through this one
    class: nothing subclasses it or defines another dictionary, and it takes
    no option that could switch the identity rule.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    dictionaries = {
        (path.relative_to(source).as_posix(), name)
        for path in sorted(source.rglob("*.py"))
        for name, (bases, _) in _classes(path).items()
        if name.endswith("Dictionary") or "TermDictionary" in bases
    }
    assert dictionaries == {("rdf/terms.py", "TermDictionary")}, dictionaries
    module = ast.parse((source / "rdf" / "terms.py").read_text())
    dictionary = next(node for node in module.body if isinstance(node, ast.ClassDef) and node.name == "TermDictionary")
    init = next(item for item in dictionary.body if isinstance(item, ast.FunctionDef) and item.name == "__init__")
    assert ast.unparse(init.args) == "self"


def test_one_replica_refresh_path(tmp_path):
    """A replica catches up one way: it pulls deltas over the wire.

    No store layer re-reads a file swapped in underneath it (no
    ``reopen``), and a saved lake holds no manifest for such a swap: just
    the graph, the vectors, the counts, the pipelines and the profiles.
    """
    from repro.interfaces import LiDSClient
    from repro.kg import KGGovernor
    from repro.rdf import QuadStore, QuadStoreBackend, SqliteBackend
    from repro.tabular import Table

    for owner in (QuadStore, QuadStoreBackend, SqliteBackend, LiDSClient):
        assert not hasattr(owner, "reopen"), owner.__name__
    governor = KGGovernor()
    governor.add_table(Table.from_dict("t", {"age": [1, 2, 3], "name": ["a", "b", "c"]}), dataset_name="d")
    directory = governor.save(tmp_path / "lake")
    assert sorted(path.name for path in directory.iterdir()) == [
        "embeddings.npz", "graph.sqlite3", "manifest.json", "pipelines.json", "profiles.json"
    ]


def test_one_replica_apply_path():
    """A replica applies one way: a durable ``replication_batch``.

    No apply mode is left to choose (no lazy applies, no deferred
    durability, no checkpoint that would make them durable later), and a
    store learns it follows a source from ``QuadStore.follow`` alone, not
    from a parameter.
    """
    import inspect

    from repro.rdf import QuadStore, QuadStoreBackend, SqliteBackend
    from repro.serving.replica import Replica, ReplicaServer, serve_replica

    def parameters(function):
        return set(inspect.signature(function).parameters)

    assert "durable_applies" not in parameters(Replica) | parameters(serve_replica)
    assert "checkpoint_after" not in parameters(ReplicaServer)
    assert parameters(QuadStore.replication_batch) == {"self", "target_version"}
    assert parameters(QuadStore) == {"backend"}
    for backend in (QuadStoreBackend, SqliteBackend):
        for name in ("supports_lazy_replication", "pending_mark", "discard_pending", "ingest_term_rows"):
            assert not hasattr(backend, name), f"{backend.__name__}.{name}"
    for owner in (Replica, QuadStore):
        assert not hasattr(owner, "checkpoint"), owner.__name__


def test_one_commit_path():
    """A store mutation commits one way: inside a ``write_batch``.

    A mutation called outside a batch opens a one-op batch, so there is no
    micro-commit to gate it, no version to note for a later flush and no
    bulk-add wrapper beside ``add_many``; the sqlite backend takes only its
    path, and the fault wrapper's one drop point is the undoable drop.
    """
    import inspect

    from repro.rdf import FaultInjectingBackend, QuadStore, QuadStoreBackend, SqliteBackend

    for name in ("_begin_write", "_end_write", "add_triples"):
        assert not hasattr(QuadStore, name), name
    for backend in (QuadStoreBackend, SqliteBackend, FaultInjectingBackend):
        assert not hasattr(backend, "note_commit_version"), backend.__name__
    assert list(inspect.signature(SqliteBackend.__init__).parameters) == ["self", "path"]
    assert "drop_graph" not in vars(FaultInjectingBackend)


def test_one_backend_base_class():
    """The in-memory store is the backend base class; nothing restates it.

    ``QuadStoreBackend`` is concrete and owns the resident indexes, the
    batch-created graphs, the undoable drop and the change marks;
    ``SqliteBackend`` overrides durability only; ``FaultInjectingBackend``
    is no backend at all — it defines its fault points and forwards every
    other attribute, so it cannot answer differently from what it wraps.
    """
    source = Path(__file__).resolve().parent.parent / "src" / "repro"
    backends = _classes(source / "rdf" / "backend.py")
    assert sorted(name for name in backends if name.endswith("Backend")) == ["QuadStoreBackend", "SqliteBackend"]
    assert backends["QuadStoreBackend"][0] == [] and backends["SqliteBackend"][0] == ["QuadStoreBackend"]
    assert "abstractmethod" not in (source / "rdf" / "backend.py").read_text()

    bases, methods = _classes(source / "rdf" / "faults.py")["FaultInjectingBackend"]
    assert bases == []
    fault_points = {"quads_added", "quads_removed", "drop_graph_for_undo", "flush", "commit_batch"}
    assert methods - fault_points == {"__init__", "__getattr__", "_tick", "_tick_rows"}

    # Index access and the undoable drop live in the two storage classes
    # only (the wrapper's ``drop_graph_for_undo`` is a fault point).
    restated = {
        (name, method)
        for path in sorted(source.rglob("*.py"))
        for name, (_, defined) in _classes(path).items()
        for method in defined & {"get_index", "ensure_index", "drop_graph_for_undo", "restore_graph"}
        if name not in ("QuadStoreBackend", "SqliteBackend", "FaultInjectingBackend")
    }
    assert not restated, restated
    assert "getattr(self._backend" not in (source / "rdf" / "store.py").read_text()


def test_query_memos_are_plain_dicts():
    """One lookup memo per join and one verdict table per FILTER clause,
    each a dict living as long as its query: no capacity, no eviction."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "sparql"
    for path in sorted(package.glob("*.py")):
        assert "BoundedMemo" not in path.read_text(), f"sparql/{path.name} still uses BoundedMemo"


def test_sqlite_layout_has_no_unread_indexes():
    """``SqliteBackend`` keeps no index that no statement reads.

    Terms are looked up in the in-memory dictionary, which owns their
    uniqueness, and triples are matched on the in-memory ``GraphIndex``;
    sqlite only stores rows by their primary keys.  A ``CREATE INDEX`` or a
    ``UNIQUE`` on ``terms`` would be paid by every write and read by nothing.
    """
    backend = Path(__file__).resolve().parent.parent / "src" / "repro" / "rdf" / "backend.py"
    statements = [
        node.value
        for node in ast.walk(ast.parse(backend.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert not [text for text in statements if re.search(r"CREATE\s+(UNIQUE\s+)?INDEX", text, re.I)]
    terms = [text for text in statements if re.match(r"CREATE TABLE IF NOT EXISTS terms\b", text)]
    assert len(terms) == 1 and "UNIQUE" not in terms[0].upper(), terms


def test_discovery_calls_do_not_query():
    """The similarity and library calls answer from snapshot views, not SPARQL.

    ``_related_tables`` slices a per-anchor ranking memoised on the dataset
    graph's snapshot and ``get_top_used_libraries`` unites per-graph use
    views; the queries they used to run per call live on in
    ``tests/interfaces_oracle.py``.  A ranking looks its neighbours' names
    up by id, never through their subject buckets, and
    ``find_unionable_columns`` reads by id too.
    """
    api = Path(__file__).resolve().parent.parent / "src" / "repro" / "interfaces" / "api.py"
    reads = {"_related_tables", "get_top_used_libraries", "_RankedNeighbours", "_library_uses", "_column_matches"}
    source = api.read_text()
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in reads:
            found[node.name] = ast.get_source_segment(source, node)
    assert set(found) == reads
    for name, text in found.items():
        assert ".query(" not in text, f"{name} runs a SPARQL query per call"
    assert ".by_subject" not in found["_RankedNeighbours"], "a ranking scans its neighbours' subject buckets"


def test_paper_scripts_rank_through_the_client():
    """The paper's discovery figures query the shipped client.

    No paper script under ``benchmarks/`` (the ``e2e/`` ledger aside) builds
    its own store or defines its own discovery class, and the schema builder
    keeps no wrapper that only such a side path called: a lake is governed
    through ``plan_incremental`` / ``apply_incremental`` alone.
    """
    from repro.kg import DataGlobalSchemaBuilder

    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    for path in sorted(benchmarks.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules, names = [alias.name for alias in node.names], []
            elif isinstance(node, ast.ImportFrom):
                modules, names = [node.module or ""], [alias.name for alias in node.names]
            else:
                if isinstance(node, ast.ClassDef):
                    assert not node.name.endswith("Discovery"), f"{path.name} defines {node.name}"
                continue
            assert not any(m == "repro.rdf" or m.startswith("repro.rdf.") for m in modules), f"{path.name} imports repro.rdf"
            assert "QuadStore" not in names, f"{path.name} imports QuadStore"
    for wrapper in ("build", "build_incremental", "compute_column_similarities"):
        assert not hasattr(DataGlobalSchemaBuilder, wrapper), f"DataGlobalSchemaBuilder.{wrapper} is back"
