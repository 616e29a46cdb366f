#!/usr/bin/env python
"""Compare freshly emitted ``BENCH_*.json`` files against committed baselines.

Perf benches write machine-readable ``BENCH_*.json`` files next to this
script; committed snapshots of the same files live in ``baselines/``.  This
checker recursively collects every dimensionless ``*speedup*`` / ``*recall*``
metric (and boolean invariants like ``graphs_identical``) from both versions
and exits
non-zero when a fresh metric regresses more than the tolerance (default 20%)
below its baseline — so construction / query speedups regress loudly instead
of silently rotting.

Absolute wall-clock seconds are deliberately *not* compared: they vary with
the host machine, while speedup ratios (measured within one run) are stable.

Usage::

    python benchmarks/check_regressions.py              # 20% tolerance
    python benchmarks/check_regressions.py --tolerance 0.1
    python benchmarks/check_regressions.py --strict     # missing fresh files fail

``run_all.py`` invokes this after the smoke suite, so a full-size bench rerun
that regresses (or a bench that stops emitting its JSON) fails CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
BASELINE_DIR = BENCH_DIR / "baselines"
DEFAULT_TOLERANCE = 0.20


def _numeric_metrics(payload, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every comparable metric in a report.

    Comparable metrics are numbers under a key containing ``speedup`` or
    ``recall`` (dimensionless, host-independent, where lower is strictly
    worse) and booleans (invariants that must not flip to ``False``).
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, bool):
                yield path, float(value)
            elif isinstance(value, (int, float)) and any(
                token in str(key).lower() for token in ("speedup", "recall", "identical")
            ):
                yield path, float(value)
            elif isinstance(value, (dict, list)):
                yield from _numeric_metrics(value, path)
    elif isinstance(payload, list):
        for position, value in enumerate(payload):
            if isinstance(value, (dict, list)):
                yield from _numeric_metrics(value, f"{prefix}[{position}]")


def compare_report(
    fresh: Dict, baseline: Dict, tolerance: float
) -> List[Tuple[str, float, float]]:
    """``(metric, baseline_value, fresh_value)`` for every regressed metric."""
    fresh_metrics = dict(_numeric_metrics(fresh))
    regressions: List[Tuple[str, float, float]] = []
    for metric, baseline_value in _numeric_metrics(baseline):
        fresh_value = fresh_metrics.get(metric)
        if fresh_value is None:
            # Queries/sections may legitimately come and go between runs
            # (e.g. a degenerate graph has no similarity edges to query).
            continue
        if "speedup" in metric.lower() and baseline_value < 1.0:
            # A sub-1.0 speedup is not a win being protected — it is timing
            # noise on a sub-millisecond query; comparing it would flake.
            continue
        floor = baseline_value * (1.0 - tolerance)
        if fresh_value < floor:
            regressions.append((metric, baseline_value, fresh_value))
    return regressions


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--fresh-dir", type=Path, default=BENCH_DIR)
    parser.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail when a baselined BENCH file is missing from the fresh dir",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"no baselines under {args.baseline_dir}", file=sys.stderr)
        return 2

    failures = 0
    for baseline_path in baselines:
        fresh_path = args.fresh_dir / baseline_path.name
        if not fresh_path.exists():
            message = f"{baseline_path.name}: no freshly emitted file"
            if args.strict:
                print(f"FAIL {message}", file=sys.stderr)
                failures += 1
            else:
                print(f"skip {message}")
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(baseline_path.read_text())
        regressions = compare_report(fresh, baseline, args.tolerance)
        if regressions:
            failures += 1
            print(f"FAIL {baseline_path.name}:", file=sys.stderr)
            for metric, baseline_value, fresh_value in regressions:
                print(
                    f"  {metric}: {fresh_value:g} < {baseline_value:g} "
                    f"(-{(1 - fresh_value / baseline_value) * 100:.0f}%, "
                    f"tolerance {args.tolerance * 100:.0f}%)",
                    file=sys.stderr,
                )
        else:
            print(f"ok   {baseline_path.name}")
    if failures:
        print(f"{failures} benchmark file(s) regressed", file=sys.stderr)
        return 1
    print("no perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
