"""Entry points of the benchmark's child processes.

``python children.py <role> '<json arguments>'`` — the driver starts every
other process of a run through this file, so that a traced run can install
the same timing wrappers (:mod:`tracing`) *before* the program's own entry
point runs:

* ``snapshot`` — set-up only: governs a lake directory plus a pipeline
  corpus into a saved sqlite directory and exits;
* ``writer`` — ``KGGovernor.open`` on a copy of that directory, a
  ``GovernorService`` and a ``LiDSServer``; then obeys one JSON line per
  command on stdin (``govern`` a CSV file, ``retract`` a table, ``exit``)
  and answers each with one JSON line on stdout, once the ticket resolved;
* ``replica`` — ``serve_replica`` on another copy, until the driver's
  ``shutdown`` RPC.

Every role exits when its stdin closes, so a driver that dies — however it
dies — leaves no orphan behind.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict


def _reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _exit_with_parent() -> None:
    """Die when stdin reaches EOF (the driver holds the other end)."""

    def watch() -> None:
        sys.stdin.read()
        os._exit(0)

    threading.Thread(target=watch, name="e2e-parent-watch", daemon=True).start()


def snapshot(args: Dict[str, Any]) -> None:
    """Govern ``lake`` + ``corpus`` into ``out``.  The corpus goes in last:
    pipelines link to the tables governed before them."""
    from repro.kg import GovernorService, KGGovernor
    from repro.kg.storage import KGLiDSStorage
    from repro.pipelines.abstraction import PipelineScript
    from repro.rdf import QuadStore
    from repro.tabular import DataLake

    _exit_with_parent()
    out = Path(args["out"])
    out.mkdir(parents=True, exist_ok=True)
    lake = DataLake.from_directory(args["lake"])
    scripts = [PipelineScript.from_dict(entry) for entry in json.loads(Path(args["corpus"]).read_text())]
    governor = KGGovernor(storage=KGLiDSStorage(graph=QuadStore.sqlite(out / "graph.sqlite3")))
    service = GovernorService(governor)
    try:
        service.submit_lake(lake).result(timeout=600)
        service.submit_pipelines(scripts).result(timeout=600)
        service.drain()
        governor.save(out)
    finally:
        service.close()
        governor.close()
    _reply({"saved": True})


def writer(args: Dict[str, Any]) -> None:
    import tracing

    tracer = _maybe_trace("writer", args)
    from repro.interfaces import LiDSClient
    from repro.kg import GovernorService, KGGovernor
    from repro.serving import LiDSServer
    from repro.tabular import read_csv

    started = time.perf_counter()
    governor = KGGovernor.open(args["directory"])
    service = GovernorService(governor)
    server = LiDSServer(LiDSClient(service))
    try:
        host, port = server.address
        _reply({"host": host, "port": port, "open_s": time.perf_counter() - started})
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "exit":
                break
            if command["cmd"] in ("govern", "retract"):
                try:
                    if command["cmd"] == "govern":
                        table = read_csv(command["path"], dataset=command["dataset"])
                        service.submit_table(table, command["dataset"]).result(timeout=30)
                    else:
                        service.submit_retract(command["dataset"], command["table"]).result(timeout=30)
                    if tracer is not None:
                        tracer.sample(tracing.service_counters(service))
                    _reply({"ok": True, "commit_version": service.commit_version})
                except Exception as error:  # noqa: BLE001 — reported to the driver, which counts it
                    _reply({"ok": False, "error": f"{type(error).__name__}: {error}"})
    finally:
        server.close()
        service.close()
        governor.close()
        _dump(tracer, args)
    _reply({"bye": True})


def replica(args: Dict[str, Any]) -> None:
    tracer = _maybe_trace("replica", args)
    from repro.serving.replica import serve_replica

    _exit_with_parent()
    try:
        serve_replica(
            args["writer_host"], args["writer_port"], args["directory"], ready_file=args["ready_file"]
        )
    finally:
        _dump(tracer, args)


def _maybe_trace(process: str, args: Dict[str, Any]):
    if not args.get("trace_file"):
        return None
    import tracing

    return tracing.install(process)


def _dump(tracer, args: Dict[str, Any]) -> None:
    if tracer is not None:
        tracer.dump(Path(args["trace_file"]))


ROLES = {"snapshot": snapshot, "writer": writer, "replica": replica}

if __name__ == "__main__":
    ROLES[sys.argv[1]](json.loads(sys.argv[2]))
