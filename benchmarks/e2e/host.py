"""What qualifies a run rather than measures the program: host speed, memory, CPU placement.

A shared sandbox is not a quiet machine.  :func:`calibrate` times a fixed
kernel — half numpy, half pure Python, the two kinds of work the program
does — before and after each measured window; the ratio of a reading to the
fastest reading of the invocation says how disturbed the host was.  Raw
metrics are never rescaled by it: a run above :data:`DISTURBED` is marked
in its report and reported like any other.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: A window whose calibration readings exceed the invocation's fastest by
#: more than this is marked ``disturbed``.
DISTURBED = 1.10


def calibrate() -> float:
    """Seconds the fixed kernel takes right now (best of five)."""
    vector = np.random.RandomState(0).rand(100_000)
    values = np.empty_like(vector)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        # Elementwise on purpose (a matmul would time the BLAS thread pool)
        # and in place, so the reading does not depend on how fragmented
        # the workload left this process's heap.
        np.copyto(values, vector)
        for _ in range(8):
            np.multiply(values, 1.0001, out=values)
            np.add(values, 1.0, out=values)
            np.sqrt(values, out=values)
        values.sort()
        total = 0
        for value in range(60000):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return best


def pin() -> None:
    """Keep this process, and the children that inherit from it, on one CPU.

    Every workload is one chain of blocking steps: at any moment one
    process of the run works and the rest wait for it, so one CPU is all a
    run can use.  Which one is the kernel's to choose, and each time it
    chooses again a wake-up crosses CPUs and the caches are cold; whatever
    else runs in the sandbox (the harness that started this, kernel
    threads) lands on either.  Pinned, the run keeps its CPU and the rest
    of the machine has the other: measured on ``serve_ingest``, five runs
    each way in turn, the best-quartile ``ops_per_s`` ranged 6 % pinned and
    41 % left to the kernel.  The last CPU of the set, because interrupts
    and housekeeping favour the first.  With one CPU, or where the
    sandbox forbids it, nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        try:
            os.sched_setaffinity(0, {cpus[-1]})
        except OSError:
            pass


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, in MB (Linux).

    ``VmHWM``, the high-water mark of the process's address space — for
    this process too: ``getrusage``'s figure survives ``exec`` and would
    carry a set-aside attempt's peak into the next one.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")
