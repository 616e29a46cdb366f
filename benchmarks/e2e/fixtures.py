"""Inputs on disk and processes around them: everything a run sets up.

All inputs derive from the run's seed.  The program never sees a generator
object: lakes reach it as CSV files written with ``tabular.write_csv``, the
pipeline corpus as a JSON file of scripts, and every child process starts
through :mod:`children` on nothing but those paths.  A run works in a fresh
directory under ``out/``, binds only ephemeral ports, and :class:`Fleet`
reaps every process it started in ``close()`` — which callers put in
``finally`` — so a failed run leaves neither an orphan nor a file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datagen import generate_discovery_benchmark, generate_pipeline_corpus
from repro.serving import RemoteLiDSClient
from repro.tabular import DataLake, Table, write_csv

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = HERE.parents[1] / "src"
CHILDREN = HERE / "children.py"

TableKey = Tuple[str, str]

#: Seconds a child may take to come up, answer a command, or exit.
CHILD_TIMEOUT = 60.0


def fresh_workdir(label: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}_", dir=OUT))


# --------------------------------------------------------------------- lakes
#: The lake is the same for every ``--seed``: the seed draws the *requests*
#: (anchors, call order, drift edits, unseen session tables), not the data
#: they run against.  Otherwise two seeds would differ in which estimator
#: the pipeline corpus happens to favour, and a 10x difference in AutoML
#: cost between seeds would bury any change to the program.
LAKE_SEED = 0


def generate_lake(tables: int, rows: int) -> List[Table]:
    """The first ``tables`` tables of the TUS-style benchmark (4 partitions per base)."""
    benchmark = generate_discovery_benchmark(
        "tus_small", seed=LAKE_SEED, base_tables=(tables + 3) // 4, partitions=4, rows=rows
    )
    return benchmark.lake.tables()[:tables]


def as_data_lake(tables: Sequence[Table], name: str = "e2e") -> DataLake:
    lake = DataLake(name)
    for table in tables:
        lake.add_table(table.dataset, table)
    return lake


def table_path(root: Path, table: Table) -> Path:
    return root / table.dataset / f"{table.name}.csv"


def write_lake(tables: Sequence[Table], root: Path) -> int:
    """Write each table to ``root/<dataset>/<table>.csv``; returns CSV bytes."""
    return sum(write_csv(table, table_path(root, table)).stat().st_size for table in tables)


def write_corpus(tables: Sequence[Table], pipelines_per_table: int, path: Path) -> List:
    scripts = generate_pipeline_corpus(
        as_data_lake(tables), pipelines_per_table=pipelines_per_table, seed=LAKE_SEED
    )
    path.write_text(json.dumps([script.to_dict() for script in scripts]))
    return scripts


def directory_bytes(root: Path, pattern: str = "*") -> int:
    return sum(path.stat().st_size for path in root.rglob(pattern) if path.is_file())


# ----------------------------------------------------------------- processes
class Child:
    """One child process speaking JSON lines on its stdin/stdout."""

    def __init__(self, role: str, args: Dict[str, Any]):
        self.role = role
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [sys.executable, str(CHILDREN), role, json.dumps(args)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=environment,
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def read(self) -> Dict[str, Any]:
        """The child's next JSON line; raises if it died instead."""
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.role} child exited with code {self.process.wait()}")
        return json.loads(line)

    def ask(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self.read()

    def kill(self) -> None:
        """End the child now and wait for it."""
        self.process.kill()
        self.reap(asked_to_exit=True)

    def reap(self, asked_to_exit: bool) -> None:
        """Wait for the child to end; make it end if it was not asked or will not.

        A child that was asked to exit is given time to write its trace;
        one that was not gets EOF on stdin, on which every role exits.
        """
        try:
            if not asked_to_exit:
                self.process.stdin.close()
            self.process.wait(timeout=CHILD_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            for stream in (self.process.stdin, self.process.stdout):
                try:
                    stream.close()
                except OSError:
                    pass


def build_snapshot(lake_dir: Path, corpus: Path, out: Path) -> None:
    """Run the ``snapshot`` child to completion."""
    child = Child("snapshot", {"lake": str(lake_dir), "corpus": str(corpus), "out": str(out)})
    done = False
    try:
        done = bool(child.read()["saved"])
    finally:
        child.reap(asked_to_exit=done)


class Fleet:
    """A writer and one replica over copies of one snapshot directory."""

    def __init__(self, snapshot: Path, workdir: Path, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.children: List[Child] = []
        self.writer: Optional[Child] = None
        self.replica: Optional[Child] = None
        self.writer_address: Tuple[str, int] = ("", 0)
        self.replica_address: Tuple[str, int] = ("", 0)
        self.writer_open_s = 0.0
        try:
            self._start(snapshot)
        except BaseException:
            self.close()
            raise

    def trace_file(self, role: str) -> Optional[str]:
        return str(self.workdir / f"trace_{role}.json") if self.trace else None

    def _start(self, snapshot: Path) -> None:
        writer_dir = self.workdir / "writer"
        replica_dir = self.workdir / "replica"
        shutil.copytree(snapshot, writer_dir)
        shutil.copytree(snapshot, replica_dir)
        self.writer = Child(
            "writer", {"directory": str(writer_dir), "trace_file": self.trace_file("writer")}
        )
        self.children.append(self.writer)
        hello = self.writer.read()
        self.writer_address = (hello["host"], int(hello["port"]))
        self.writer_open_s = float(hello["open_s"])
        ready = self.workdir / "replica.ready"
        self.replica = Child(
            "replica",
            {
                "writer_host": self.writer_address[0],
                "writer_port": self.writer_address[1],
                "directory": str(replica_dir),
                "ready_file": str(ready),
                "trace_file": self.trace_file("replica"),
            },
        )
        self.children.append(self.replica)
        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            if ready.exists():
                try:
                    info = json.loads(ready.read_text())
                    self.replica_address = (info["host"], int(info["port"]))
                    return
                except (ValueError, KeyError):
                    pass  # partially written; read it again
            if self.replica.process.poll() is not None:
                raise RuntimeError("replica died during bootstrap")
            if time.monotonic() > deadline:
                raise RuntimeError("replica never became ready")
            time.sleep(0.01)

    def pids(self) -> List[int]:
        return [child.pid for child in self.children]

    def close(self) -> None:
        """Stop the replica, then the writer, and wait for both; idempotent.

        A traced fleet is asked to exit, because its children write their
        spans on the way out; an untraced one has nothing to say and works
        on copies this run deletes, so it is killed, which is quicker — a
        run starts three fleets.
        """
        for child in reversed(self.children):
            if not self.trace:
                child.kill()
                continue
            asked = False
            try:
                if child is self.writer:
                    asked = bool(child.ask({"cmd": "exit"}).get("bye"))
                elif self.replica_address[1]:
                    with RemoteLiDSClient(self.replica_address, max_retries=0) as remote:
                        remote.shutdown_server()
                    asked = True
            except (OSError, RuntimeError, ValueError):
                pass  # already gone or wedged: reap() closes stdin, then kills
            child.reap(asked_to_exit=asked)
        self.children = []

    def child_traces(self) -> List[Dict[str, Any]]:
        """Span files the children wrote on exit (call after :meth:`close`)."""
        traces = []
        for role in ("writer", "replica"):
            path = self.trace_file(role)
            if path and Path(path).exists():
                traces.append(json.loads(Path(path).read_text()))
        return traces
