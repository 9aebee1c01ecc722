#!/usr/bin/env python
"""Fleet benchmark: multi-GPU serving throughput, serial vs sharded epochs.

Runs the :mod:`repro.experiments.fleet` four-GPU scenario (cluster-level
admission, least-loaded routing) twice — epoch batches executed serially in
this process, then sharded over a :class:`~repro.runner.BatchRunner` worker
pool — and prints, per mode:

* wall-clock time of the fleet run (best of ``--repeats``),
* completed requests and requests/sec,
* simulator events processed and events/sec (engine-level throughput),

plus the sharded/serial speedup and the host CPU count.  The repository
benchmark (``perfbench/``) times the fleet serially only; this script is
where sharding is measured, and it gates itself.  It exits non-zero when

* the serial and sharded summaries differ (sharding may only buy
  wall-clock time, never change a result), or
* the host has two or more CPUs and sharding is slower than serial.  On one
  CPU the workers time-share the core, so the speedup is printed but not
  gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py                # full scale
    PYTHONPATH=src python benchmarks/bench_fleet.py --preset small # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster import run_fleet
from repro.experiments.base import ExperimentConfig
from repro.experiments.fleet import fleet_scenario
from repro.runner import BatchRunner

#: Preset name -> workload scale.  Even ``small`` uses the reduced scale:
#: smoke-scale fleet runs finish in milliseconds, too short to time.
PRESETS: Dict[str, str] = {
    "small": "reduced",
    "full": "full",
}


def bench_mode(scale: str, *, runner: Optional[BatchRunner], repeats: int) -> Tuple[float, str]:
    """Time one execution mode; returns (best wall time, summary JSON)."""
    scenario = fleet_scenario(ExperimentConfig(scale=scale), router="least_loaded")
    wall = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        outcome = run_fleet(scenario, runner=runner)
        wall = min(wall, time.perf_counter() - started)
    completed = outcome.summary["completed"]
    events = outcome.events_processed
    print(
        f"fleet_{'serial' if runner is None else 'sharded'} ({scale}): "
        f"wall {wall:.4f} s, {completed} requests ({completed / wall:,.0f}/s), "
        f"{events} events ({events / wall:,.0f}/s)"
    )
    return wall, json.dumps(outcome.summary, sort_keys=True)


def sharding_failures(
    serial_summary: str, sharded_summary: str, speedup: float, cpu_count: Optional[int]
) -> List[str]:
    """Why a serial/sharded pair fails the gate (empty when it passes)."""
    failures = []
    if serial_summary != sharded_summary:
        failures.append("serial and sharded fleet summaries differ")
    if (cpu_count or 1) >= 2 and speedup < 1.0:
        failures.append(
            f"sharding is slower than serial: {speedup:.2f}x on {cpu_count} CPUs"
        )
    return failures


def run_benchmark(preset: str, *, repeats: int, jobs: int) -> List[str]:
    """Time both modes of ``preset``; returns the gate's failures."""
    scale = PRESETS[preset]
    serial_wall, serial_summary = bench_mode(scale, runner=None, repeats=repeats)
    with BatchRunner(jobs=jobs) as runner:
        sharded_wall, sharded_summary = bench_mode(scale, runner=runner, repeats=repeats)
    speedup = serial_wall / sharded_wall
    cpu_count = os.cpu_count()
    gated = "" if (cpu_count or 1) >= 2 else " (not gated on one CPU)"
    print(f"sharding speedup: {speedup:.2f}x with {jobs} jobs on {cpu_count} CPU(s){gated}")
    return sharding_failures(serial_summary, sharded_summary, speedup, cpu_count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="full", help="scale preset to run"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions per mode (best wins)"
    )
    parser.add_argument(
        "--jobs", type=int, default=4, help="worker processes for the sharded mode"
    )
    args = parser.parse_args(argv)
    failures = run_benchmark(args.preset, repeats=args.repeats, jobs=args.jobs)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("summaries byte-identical; gate passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
