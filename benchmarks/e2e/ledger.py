"""From a measured window (and, when traced, its spans) to named metrics.

Two tables define what the benchmark reports, and ``BENCHMARK.json`` lists
exactly their names:

* :data:`END_TO_END` — what a user of the system sees; measured untraced;
* :data:`PER_LAYER` — one row per layer metric, saying where the number
  comes from: seconds of the window a span name owns (``time``), raw span
  durations (``raw`` — waits are reported as experienced, not as
  attributed), span occurrences (``spans``), the growth of a counter the
  program keeps (``delta``) or the wrappers keep (``counted``), or a number
  the scenario measured itself (``extra``).  Rows with a function compute
  ratios and medians.

Layer = a module under ``src/repro/``; the README says which end-to-end
metric each row should move, on which workload.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import tracing
from scenarios import Window

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def valid_name(name: str) -> bool:
    """Whether ``name`` fits the driver's rule for workload and metric names."""
    return bool(NAME.match(name))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count — how every timing sample is printed."""
    if not values:
        return {"n": 0, "q1": 0.0, "median": 0.0, "q3": 0.0}
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


# ---------------------------------------------------------------- end to end
#: name -> (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "store_bytes_per_input_byte": ("ratio", "lower"),
    "quality_ratio": ("ratio", "higher"),
}


def block_values(window: Window, tail: float) -> Dict[str, List[float]]:
    """Per block: ops per second of op time, median op latency, tail op latency.

    A block's seconds are the sum of its op latencies — the harness's own
    work between two ops (editing the lake directory, book-keeping) is not
    the program's.
    """
    values: Dict[str, List[float]] = {"ops_per_s": [], "op_p50_ms": [], "op_tail_ms": []}
    for first, stop, ops in window.blocks:
        latencies = window.latencies_ms[first:stop]
        values["ops_per_s"].append(ops * 1000.0 / sum(latencies))
        values["op_p50_ms"].append(percentile(latencies, 50))
        values["op_tail_ms"].append(percentile(latencies, tail))
    return values


def calm_decile(values: Sequence[float], better: str) -> float:
    """The decile of ``values`` on the better side: 10th percentile of
    times, 90th of rates."""
    return percentile(values, 10 if better == "lower" else 90)


def end_to_end(window: Window, setup_s: float, peak_rss_mb: float, tail: float) -> Dict[str, float]:
    """The three timings are the better decile over the window's blocks.

    The blocks hold identical work, so they differ by what else the host
    was doing, and that only ever adds time: a neighbour's burst spoils the
    blocks it falls on and leaves the others as the program made them.  On
    this kind of host a burst lasts from a second to most of a window
    (README, "Blocks"), so the median block is often a disturbed one; the
    better decile is the program's own speed as long as a tenth of the
    window was left alone.  A total over the window, or a percentile of
    all its ops, carries every burst into the figure.
    """
    timings = {
        name: calm_decile(values, END_TO_END[name][1])
        for name, values in block_values(window, tail).items()
    }
    return {
        "setup_s": setup_s,
        **timings,
        "peak_rss_mb": peak_rss_mb,
        "store_bytes_per_input_byte": window.extra["store_bytes"] / window.extra["input_bytes"],
        "quality_ratio": statistics.fmean(window.quality) if window.quality else 0.0,
    }


# ------------------------------------------------------------------ per layer
class Trace:
    """The spans, holds and counter samples of every process of one run."""

    def __init__(self, payloads: Sequence[Dict[str, Any]], window: Window):
        self.window = (window.start, window.end)
        self.spans: List[tracing.Span] = [tuple(span) for p in payloads for span in p["spans"]]
        self.samples = {p["process"]: p["samples"] for p in payloads}
        self.events = {p["process"]: p["events"] for p in payloads}
        self.holds = [hold for p in payloads for hold in p["holds"]]
        self.in_window = [s for s in self.spans if s[5] >= window.start and s[6] <= window.end]
        self.exclusive = tracing.exclusive_times(self.spans, self.window)

    def time(self, names: Sequence[str], process: Optional[str] = None) -> float:
        """Seconds of the window owned by spans of these names (all chains)."""
        return sum(
            seconds
            for chain in self.exclusive.values()
            for (span_process, name), seconds in chain.items()
            if name in names and process in (None, span_process)
        )

    def raw(self, name: str) -> float:
        return sum(span[6] - span[5] for span in self.in_window if span[4] == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.in_window if span[4] == name)

    def held(self, name: str) -> float:
        lo, hi = self.window
        return sum(end - start for hold, start, end in self.holds if hold == name and start >= lo and end <= hi)

    def delta(self, key: str, processes: Sequence[str] = ("driver", "writer", "replica")) -> float:
        """Growth over the window of a counter the program keeps, summed over processes."""
        return sum(
            tracing.counter_delta(self.samples[process], key, self.window, events=False)
            for process in processes
            if process in self.samples
        )

    def counted(self, key: str, processes: Sequence[str] = ("driver", "writer", "replica")) -> float:
        """Growth over the window of a count the wrappers keep."""
        return sum(
            tracing.counter_delta(self.events[process], key, self.window, events=True)
            for process in processes
            if process in self.events
        )

    def last(self, key: str, processes: Sequence[str]) -> float:
        """A counter's last sampled value (of the process where it is largest)."""
        return max(
            (value for process in processes
             for _, sample_key, value in self.samples.get(process, []) if sample_key == key),
            default=0.0,
        )

    def durations_ms(self, name: str, process: Optional[str] = None) -> Dict[Optional[int], float]:
        """Request id -> inclusive duration of its span called ``name``."""
        return {
            span[7]: (span[6] - span[5]) * 1000.0
            for span in self.in_window
            if span[4] == name and process in (None, span[0])
        }

    def queue_wait(self) -> float:
        """Seconds submissions waited for the governor's scheduler thread.

        From each ``kg.submit`` span's end to the next span the scheduler
        thread of the same process starts.
        """
        total = 0.0
        for process in {span[0] for span in self.in_window}:
            starts = sorted(
                span[5] for span in self.in_window
                if span[0] == process and span[1] == "governor-scheduler" and span[3] == 0
            )
            if not starts:
                continue
            array = np.asarray(starts)
            for span in self.in_window:
                if span[0] == process and span[4] == "kg.submit":
                    index = int(np.searchsorted(array, span[6]))
                    if index < len(array):
                        total += array[index] - span[6]
        return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


INTERFACES = tuple(f"interfaces.{method}" for method in tracing.CLIENT_READS)
WRITERS = ("driver", "writer")

#: Call class -> the client method whose replica-side span times it.
CALL_CLASSES = {
    "unionable": "interfaces.get_unionable_tables",
    "joinable": "interfaces.get_joinable_tables",
    "keyword": "interfaces.search_keywords",
    "path": "interfaces.get_path_to_table",
    "library": "interfaces.get_top_k_library_used",
    "sparql_point": "interfaces.query",
    "sparql_join": "interfaces.query",
    "sparql_aggregate": "interfaces.query",
}


def _class_p50(kind: str) -> Callable[[Trace, Window], float]:
    """Median replica-side duration of one call class's client method."""

    def compute(trace: Trace, window: Window) -> float:
        # The window's ops in order are its request ids in order, so the
        # k-th id carries the k-th class; the replica tagged its spans with
        # the same ids (see tracing._after_server_recv).
        requests = sorted(
            span[7] for span in trace.in_window
            if span[0] == "driver" and span[4] == "driver.op" and span[7] is not None
        )
        # (Writes go to the writer, not through the replica: not numbered.)
        kinds = dict(zip(requests, (c for c in window.classes if not c.startswith("write"))))
        durations = trace.durations_ms(CALL_CLASSES[kind], process="replica")
        return percentile([ms for request, ms in durations.items() if kinds.get(request) == kind], 50)

    return compute


def _first_repeat(first: bool) -> Callable[[Trace, Window], float]:
    def compute(trace: Trace, window: Window) -> float:
        seen: set = set()
        chosen = []
        for text, latency in zip(window.texts, window.latencies_ms):
            if (text not in seen) == first:
                chosen.append(latency)
            seen.add(text)
        return percentile(chosen, 50)

    return compute


def _op_p50(kind: str) -> Callable[[Trace, Window], float]:
    """Median latency, as the driver saw it, of the window's ops of one class."""
    return lambda trace, window: percentile(
        [ms for ms, cls in zip(window.latencies_ms, window.classes) if cls == kind], 50
    )


def _time(*names: str, process: Optional[str] = None):
    return lambda trace, window: trace.time(names, process)


def _raw(name: str):
    return lambda trace, window: trace.raw(name)


def _spans(name: str):
    return lambda trace, window: float(trace.count(name))


def _delta(key: str, processes: Sequence[str] = ("driver", "writer", "replica")):
    return lambda trace, window: trace.delta(key, processes)


def _counted(key: str, processes: Sequence[str] = ("driver", "writer", "replica")):
    return lambda trace, window: trace.counted(key, processes)


def _extra(key: str):
    return lambda trace, window: float(window.extra.get(key, 0.0))


def _memo_ratio(kind: str):
    def compute(trace: Trace, window: Window) -> float:
        hits = trace.delta(f"sparql.{kind}_memo_hits")
        return _ratio(hits, hits + trace.delta(f"sparql.{kind}_memo_misses"))

    return compute


#: (name, unit, better, how).  Order is the order of the printed report.
PER_LAYER: List[Tuple[str, str, str, Callable[[Trace, Window], float]]] = [
    ("tabular.read_csv_s", "s", "lower", _time("tabular.read_csv")),
    ("tabular.fingerprint_s", "s", "lower", _time("tabular.fingerprint")),
    ("tabular.input_bytes", "bytes", "lower", _counted("tabular.input_bytes")),
    ("crawler.bulk_round_s", "s", "lower", _extra("crawler.bulk_round_s")),
    ("crawler.scan_s", "s", "lower", _time("crawler.scan", "crawler.list")),
    ("crawler.load_s", "s", "lower", _time("crawler.load")),
    ("crawler.loads", "count", "lower", _spans("crawler.load")),
    ("crawler.refs_scanned", "count", "lower", _counted("crawler.refs_scanned")),
    ("crawler.load_ratio", "ratio", "lower",
     lambda t, w: _ratio(t.count("crawler.load"), t.counted("crawler.refs_scanned"))),
    ("profiler.profile_s", "s", "lower", _time("profiler.profile_tables", "profiler.profile_table")),
    ("profiler.tables", "count", "lower", _counted("profiler.tables")),
    ("profiler.columns", "count", "lower", _counted("profiler.columns")),
    ("embeddings.embed_s", "s", "lower", _time("embeddings.embed")),
    ("embeddings.put_s", "s", "lower", _time("embeddings.put")),
    ("embeddings.search_s", "s", "lower", _time("embeddings.search")),
    ("embeddings.vectors", "count", "lower", _counted("embeddings.vectors")),
    ("pipelines.abstract_s", "s", "lower", _time("pipelines.abstract_scripts", "pipelines.abstract_script")),
    ("pipelines.scripts", "count", "lower", _counted("pipelines.scripts")),
    ("kg.similarity_plan_s", "s", "lower", _time("kg.similarity_plan")),
    ("kg.similarity_apply_s", "s", "lower", _time("kg.similarity_apply")),
    ("kg.similarity_pairs_scored", "count", "lower", _counted("kg.similarity_scored_pairs")),
    ("kg.similarity_edges", "count", "higher", _counted("kg.similarity_edges")),
    ("kg.similarity_pruning_ratio", "ratio", "lower",
     lambda t, w: _ratio(t.counted("kg.similarity_scored_pairs"), t.counted("kg.similarity_candidate_pairs"))),
    ("kg.add_tables_s", "s", "lower", _time("kg.add_tables")),
    ("kg.refresh_s", "s", "lower", _raw("kg.refresh")),
    ("kg.retract_s", "s", "lower", _raw("kg.retract")),
    ("kg.add_pipelines_s", "s", "lower", _raw("kg.add_pipelines")),
    ("kg.save_s", "s", "lower", _extra("kg.save_s")),
    ("kg.open_s", "s", "lower", _extra("kg.open_s")),
    ("kg.write_p50_ms", "ms", "lower", _op_p50("write_add")),
    ("kg.retract_p50_ms", "ms", "lower", _op_p50("write_retract")),
    ("kg.service_queue_wait_s", "s", "lower", lambda t, w: t.queue_wait()),
    ("kg.service_batches", "count", "lower", _delta("service.batches", WRITERS)),
    ("kg.service_tables_per_batch", "ratio", "higher",
     lambda t, w: _ratio(t.delta("service.completed", WRITERS), t.delta("service.batches", WRITERS))),
    ("kg.service_retries", "count", "lower", _delta("service.retries", WRITERS)),
    ("rdf.write_batch_s", "s", "lower", lambda t, w: t.held("rdf.write_batch")),
    ("rdf.commit_s", "s", "lower", _time("rdf.write_batch.exit")),
    ("rdf.flush_s", "s", "lower", _time("rdf.flush")),
    ("rdf.commits", "count", "lower", _delta("rdf.commit_version", WRITERS)),
    ("rdf.rows_written", "count", "lower", _delta("rdf.rows_version", WRITERS)),
    ("rdf.write_wait_s", "s", "lower", _raw("rdf.write_batch.wait")),
    ("rdf.read_wait_s", "s", "lower", _raw("rdf.read_view.wait")),
    ("rdf.shard_loads", "count", "lower", _delta("rdf.shard_loads")),
    ("rdf.terms", "count", "lower", lambda t, w: t.last("rdf.terms", WRITERS)),
    ("rdf.store_bytes", "bytes", "lower", _extra("rdf.store_bytes")),
    ("sparql.parse_s", "s", "lower", _time("sparql.parse")),
    ("sparql.evaluate_s", "s", "lower", _time("sparql.evaluate")),
    ("sparql.to_table_s", "s", "lower", _time("sparql.to_table")),
    ("sparql.queries", "count", "lower", _spans("sparql.evaluate")),
    ("sparql.rows_out", "count", "lower", _counted("sparql.rows_out")),
    ("sparql.pattern_memo_lookups", "count", "lower",
     lambda t, w: t.delta("sparql.pattern_memo_hits") + t.delta("sparql.pattern_memo_misses")),
    ("sparql.pattern_memo_hit_ratio", "ratio", "higher", _memo_ratio("pattern")),
    ("sparql.filter_memo_hit_ratio", "ratio", "higher", _memo_ratio("filter")),
    ("interfaces.api_s", "s", "lower", _time(*INTERFACES)),
    *[(f"interfaces.{kind}_p50_ms", "ms", "lower", _class_p50(kind)) for kind in CALL_CLASSES],
    ("serving.send_s", "s", "lower", _time("serving.send", "serving.client_send")),
    ("serving.recv_s", "s", "lower", _time("serving.recv", "serving.client_recv")),
    ("serving.encode_s", "s", "lower", _time("serving.encode")),
    ("serving.decode_s", "s", "lower", _time("serving.decode")),
    ("serving.frame_bytes_mean", "bytes", "lower",
     lambda t, w: _ratio(t.counted("serving.bytes_received", ("driver",)), t.count("serving.client_recv"))),
    ("serving.wire_rtt_ms", "ms", "lower", _extra("serving.wire_rtt_ms")),
    ("serving.replica_dispatch_s", "s", "lower", _time("serving.dispatch", process="replica")),
    ("serving.dispatch_s", "s", "lower", _time("serving.dispatch", process="writer")),
    ("serving.compute_delta_s", "s", "lower", _time("serving.compute_delta")),
    ("serving.sync_s", "s", "lower", _time("serving.sync", "serving.pull")),
    ("serving.syncs", "count", "lower", _delta("replica.syncs")),
    ("serving.sync_noops", "count", "lower", _delta("replica.noops")),
    ("serving.delta_pulls", "count", "lower", _delta("replica.delta_pulls")),
    ("serving.full_pulls", "count", "lower", _delta("replica.full_pulls")),
    ("serving.delta_rows_applied", "count", "lower", _delta("replica.rows_applied")),
    ("serving.pull_s", "s", "lower", _delta("replica.pull_seconds")),
    ("serving.apply_s", "s", "lower", _delta("replica.apply_seconds")),
    ("serving.catchup_s", "s", "lower", _extra("serving.catchup_s")),
    ("serving.client_retries", "count", "lower", _extra("serving.client_retries")),
    ("serving.first_p50_ms", "ms", "lower", _first_repeat(True)),
    ("serving.repeat_p50_ms", "ms", "lower", _first_repeat(False)),
    ("automation.recommend_s", "s", "lower", _time("automation.recommend")),
    ("automation.apply_s", "s", "lower", _time("automation.apply")),
    ("automation.train_s", "s", "lower", _extra("automation.train_s")),
    ("automl.recommend_s", "s", "lower", _time("automl.recommend")),
    ("automl.search_s", "s", "lower", _time("automl.search")),
    ("automl.prior_harvest_s", "s", "lower", _time("automl.prior_harvest")),
    ("automl.evaluations", "count", "lower", _extra("automl.evaluations")),
    ("automl.screened", "count", "lower", _extra("automl.screened")),
    ("automl.promoted", "count", "lower", _extra("automl.promoted")),
    ("automl.cache_hit_ratio", "ratio", "higher",
     lambda t, w: _ratio(w.extra.get("automl.cache_hits", 0.0), w.extra.get("automl.cache_lookups", 0.0))),
    ("ml.cv_fit_s", "s", "lower", _time("ml.cv_fit")),
    ("ml.cv_fits", "count", "lower", _counted("ml.cv_fits")),
    ("parallel.map_s", "s", "lower", _time("parallel.map")),
    ("parallel.maps", "count", "lower", _counted("parallel.maps")),
    ("parallel.fallbacks", "count", "lower", _counted("parallel.fallbacks")),
    ("host.calibration_s", "s", "lower", _extra("host.calibration_s")),
    ("host.slowdown_ratio", "ratio", "lower", _extra("host.slowdown_ratio")),
    ("trace.window_s", "s", "lower", lambda t, w: w.seconds),
    ("trace.ops", "count", "higher", lambda t, w: float(w.ops)),
    ("trace.blocks", "count", "higher", lambda t, w: float(len(w.blocks))),
    ("trace.spans", "count", "lower", lambda t, w: float(len(t.in_window))),
    ("trace.overhead_ratio", "ratio", "lower",
     lambda t, w: len(t.in_window) * w.extra.get("trace.span_cost_s", 0.0) / w.seconds),
    ("trace.coverage_ratio", "ratio", "higher", lambda t, w: coverage(t, w)),
]


def per_layer(trace: Trace, window: Window) -> Dict[str, float]:
    return {name: float(how(trace, window)) for name, _, _, how in PER_LAYER}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def shares(trace: Trace, window: Window, chain: str = "main") -> Dict[str, float]:
    """Layer -> share of the window its spans own, on one chain.

    ``driver`` is what no layer explains: the harness's own loop and
    whatever the program does between two boundaries.
    """
    totals: Dict[str, float] = {}
    for (_, name), seconds in trace.exclusive.get(chain, {}).items():
        layer = layer_of(name)
        totals[layer] = totals.get(layer, 0.0) + seconds / window.seconds
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def coverage(trace: Trace, window: Window) -> float:
    """Share of the window covered by named self time of some layer."""
    return sum(share for layer, share in shares(trace, window).items() if layer != "driver")


# ------------------------------------------------------------------- manifest
def manifest() -> Dict[str, Any]:
    return json.loads(MANIFEST.read_text())


def declared(section: str) -> Dict[str, str]:
    """``BENCHMARK.json``'s metric names of one section, with their units."""
    return {entry["name"]: entry["unit"] for entry in manifest()[section]}
