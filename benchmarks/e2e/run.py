"""The layered performance ledger: run one workload, or all four.

The driver's contract (one run, one JSON object on the last line)::

    python3 benchmarks/e2e/run.py --workload serve --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation in
any process; ``--trace 1`` runs the same op stream with timing wrappers at
every layer boundary (``tracing.py``) and reports the per-layer metrics.
For people::

    python3 benchmarks/e2e/run.py --all --seed 7        # 4 workloads x (untraced, traced)
    python3 benchmarks/e2e/run.py --smoke               # toy sizes, every code path
    python3 benchmarks/e2e/run.py --check-repeat        # same seed => same op lists and counts

Every run prints each metric by name with its unit, checks the program's
outputs, and exits non-zero when a check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# One BLAS thread per process, set before numpy loads and inherited by the
# children.  OpenBLAS's default of one thread per core makes each small
# matmul wait at a barrier for a core someone else holds (measured: a
# 160x160 product goes from 1 ms to 100 ms), which multiplies whatever
# else disturbs the host — and a run keeps to one CPU anyway (host.pin).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # The benchmark measures the program; without its sources there is
    # nothing to run, and pretending otherwise would print made-up numbers.
    sys.exit(f"run.py: the program's sources are missing ({SRC / 'repro'})")
sys.path.insert(0, str(SRC))

import fixtures  # noqa: E402
import host  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scenarios import SCENARIOS, Limit  # noqa: E402

#: Count metrics that must repeat exactly for one seed (``--check-repeat``).
REPEATING_COUNTS = (
    "rdf.commits",
    "rdf.rows_written",
    "kg.similarity_edges",
    "sparql.queries",
    "sparql.rows_out",
    "automl.evaluations",
    "ml.cv_fits",
)

#: Counts that may differ all the same.  After a write the replica answers
#: from the old snapshot until its freshness lease (a clock: 50 ms) runs out
#: and it pulls; whether a given read lands before or after that is timing,
#: and the streamed table is in its answer or not.
CLOCKED_COUNTS = {"serve_ingest": {"sparql.rows_out"}}

#: Times a run starts the program up on its inputs; ``setup_s`` counts the
#: median of them (and the inputs' preparation, done once).  A traced run
#: starts once: it does not report ``setup_s``.
SETUP_REPEATS = 3


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    units: Optional[int] = None,
    sizes: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One run of one workload in this process (plus the children it starts)."""
    sizes = sizes or workloads.SIZES[name]
    fastest = host.calibrate()
    tracer: Any = tracing.NullTracer()
    span_cost = 0.0
    if trace:
        span_cost = tracing.span_cost()
        tracer = tracing.install("driver")
        if units is None:
            # A fixed number of blocks, so that counts repeat exactly; about
            # one window of `seconds` at the commit that defined the sizes.
            units = max(1, round(sizes["traced_units"] * seconds / ledger.manifest()["run_seconds"]))
    limit = Limit(seconds, units)
    scenario = SCENARIOS[name](sizes, seed, tracer, trace)
    workdir = fixtures.fresh_workdir(name)
    try:
        started = time.perf_counter()
        scenario.prepare(workdir, limit)
        prepare_s = time.perf_counter() - started
        start_s: List[float] = []
        for _ in range(1 if trace else SETUP_REPEATS):
            scenario.stop()
            started = time.perf_counter()
            scenario.start()
            start_s.append(time.perf_counter() - started)
        setup_s = prepare_s + statistics.median(start_s)
        before = host.calibrate()
        tracer.sample(scenario.counters())
        window = scenario.run(limit)
        tracer.sample(scenario.counters())
        after = host.calibrate()
        # Read during the window, after a fixed block (Scenario.end_block);
        # for a window shorter than that, here — before the checks, which
        # run a second governor in this process.
        rss = window.extra.get("peak_rss_mb", scenario.peak_rss_mb())
        scenario.check(window)
    finally:
        scenario.stop()
        child_traces = scenario.child_traces()
        shutil.rmtree(workdir, ignore_errors=True)
        if trace:
            tracer.uninstall()
    calibration = max(before, after)
    slowdown = calibration / min(fastest, before, after)
    window.extra.update(
        {
            "host.calibration_s": calibration,
            "host.slowdown_ratio": slowdown,
            "trace.span_cost_s": span_cost,
        }
    )
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "units": units,
        "traced": trace,
        "window_s": window.seconds,
        "attempted": window.attempted,
        "failed": window.failed,
        "failures": window.failures[:20],
        "disturbed": slowdown > host.DISTURBED,
        "slowdown_ratio": slowdown,
        "digest": workloads.stream_digest(window.executed),
        "setup_s": setup_s,
        "prepare_s": prepare_s,
        "start_s": start_s,
        "tail": sizes["tail"],
        "samples": {
            "op_ms": ledger.summarize(window.latencies_ms),
            "op_ms_values": window.latencies_ms,
            "op_classes": window.classes,
            "blocks": window.blocks,
            **{
                f"block_{key}": ledger.summarize(values)
                for key, values in ledger.block_values(window, sizes["tail"]).items()
            },
        },
        "end_to_end": ledger.end_to_end(window, setup_s, rss, sizes["tail"]),
    }
    if trace:
        payloads = [tracer.payload()] + child_traces
        spans = ledger.Trace(payloads, window)
        report["per_layer"] = ledger.per_layer(spans, window)
        report["shares"] = {chain: ledger.shares(spans, window, chain) for chain in spans.exclusive}
        (fixtures.OUT / f"trace_{name}.json").write_text(
            json.dumps({"window": [window.start, window.end], "processes": payloads})
        )
    return report


# ------------------------------------------------------------------- printing
def result_line(report: Dict[str, Any]) -> str:
    """The driver's last line: exactly correct / attempted / failed / metrics."""
    section = "per_layer" if report["traced"] else "end_to_end"
    units = ledger.declared(section)
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in report[section].items()
            },
        }
    )


def print_report(report: Dict[str, Any]) -> None:
    section = "per_layer" if report["traced"] else "end_to_end"
    units = ledger.declared(section)
    print(
        f"== {report['workload']} seed={report['seed']} "
        f"{'traced' if report['traced'] else 'untraced'}: window {report['window_s']:.2f} s, "
        f"{len(report['samples']['blocks'])} blocks, "
        f"{report['attempted']} attempted, {report['failed']} failed"
        f"{', DISTURBED host' if report['disturbed'] else ''} "
        f"(slowdown {report['slowdown_ratio']:.3f})"
    )
    print(
        f"   set-up: inputs {report['prepare_s']:.3f} s once, start-up "
        + " / ".join(f"{value:.3f}" for value in report["start_s"]) + " s"
    )
    for key in ("op_ms", "block_ops_per_s", "block_op_p50_ms", "block_op_tail_ms"):
        sample = report["samples"][key]
        print(
            f"   {key}: n={sample['n']} q1={sample['q1']:.3f} "
            f"median={sample['median']:.3f} q3={sample['q3']:.3f}"
        )
    print(f"   the three timings are the better decile over blocks; a block's tail is its p{report['tail']}")
    for name, value in report[section].items():
        print(f"   {name:<36} {value:>16.6g} {units[name]}")
    for chain, layers in report.get("shares", {}).items():
        print(f"   share of the window by layer, chain '{chain}': " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in layers.items()
        ))
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")


# ---------------------------------------------------------------- composites
def _command(name: str, seed: int, seconds: float, trace: bool, units: Optional[int]) -> List[str]:
    """The command line of one run of this file."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    return command + (["--ops", str(units)] if units is not None else [])


def _spawn_run(
    name: str, seed: int, seconds: float, trace: bool, units: Optional[int]
) -> Optional[Dict[str, Any]]:
    """One run as its own process tree; its saved report, or None if it left none."""
    label = "traced" if trace else "untraced"
    saved = fixtures.OUT / f"last_{name}_{label}.json"
    # `out/` outlives an invocation: a run that crashes must not be read as
    # the run before it.
    saved.unlink(missing_ok=True)
    completed = subprocess.run(
        _command(name, seed, seconds, trace, units), stdout=subprocess.PIPE, text=True
    )
    sys.stdout.write(completed.stdout)
    # 0: every check passed; 1 with a report: some check failed.
    if completed.returncode not in (0, 1) or not saved.exists():
        print(f"-- {name} {label}: ended with code {completed.returncode} and no report")
        return None
    return json.loads(saved.read_text())


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run its own process tree."""
    failed = 0
    for name in SCENARIOS:
        for trace in (False, True):
            report = _spawn_run(name, seed, seconds, trace, None)
            failed += 1 if report is None else report["failed"]
    return 1 if failed else 0


def check_repeat(seed: int, seconds: float) -> int:
    """Two traced runs per workload: same seed, same op list, same counts."""
    broken = 0
    for name in SCENARIOS:
        units = workloads.SIZES[name]["traced_units"]
        first, second = (_spawn_run(name, seed, seconds, True, units) for _ in range(2))
        if first is None or second is None:
            print(f"-- {name}: a run left no report; nothing to compare")
            broken += 1
            continue
        differing = [
            key for key in REPEATING_COUNTS
            if first["per_layer"][key] != second["per_layer"][key]
        ]
        same_ops = first["digest"] == second["digest"]
        print(f"-- {name}: op lists {'equal' if same_ops else 'DIFFER'}; counts that differ: {differing or 'none'}")
        broken += (not same_ops) + len(set(differing) - CLOCKED_COUNTS.get(name, set()))
    return 1 if broken else 0


def smoke(seed: int) -> int:
    """All four workloads at toy sizes, traced, in this process."""
    failed = 0
    for name in SCENARIOS:
        sizes = workloads.SMOKE[name]
        report = run_once(name, seed, 1.0, True, units=sizes["traced_units"], sizes=sizes)
        print_report(report)
        failed += report["failed"]
        for section in ("end_to_end", "per_layer"):
            undeclared = set(report[section]) ^ set(ledger.declared(section))
            if undeclared:
                print(f"   {section}: emitted and declared names differ: {sorted(undeclared)}")
                failed += 1
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(ledger.manifest()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="end the window after this many blocks instead of --seconds")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.check_repeat:
        return check_repeat(args.seed, args.seconds)
    if args.workload is None and not args.smoke:
        parser.error("name a --workload, or use --all / --smoke / --check-repeat")
    host.pin()
    if args.smoke:
        return smoke(args.seed)
    report = run_once(args.workload, args.seed, args.seconds, bool(args.trace), units=args.ops)
    print_report(report)
    label = "traced" if report["traced"] else "untraced"
    (fixtures.OUT / f"last_{report['workload']}_{label}.json").write_text(json.dumps(report, indent=1))
    print(result_line(report))
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
