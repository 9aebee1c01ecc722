"""One benchmark run: timed repetitions, output checks and the traced pass.

:func:`measure` repeats a workload's set-up and run, with profiling off,
until ``seconds`` have passed (at least :data:`MIN_REPS` times); it reports
the median set-up and run, scaled to a reference host speed.  With ``trace`` on it then profiles
one more execution and reports the per-layer metrics instead.  Every
execution's simulated summary is hashed and checked against the stored
digest for its seed, and against the other executions of the run.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro

from perfbench.layers import (
    Spans,
    call_count,
    check_metric,
    ratio,
    self_time_by_package,
    shares,
)
from perfbench.workloads import WORKLOADS, Output, digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

#: Fewest timed repetitions a run makes, however long they take.
MIN_REPS = 3

#: Set-up is sampled at least this often for ``setup_s``: cheap set-ups
#: (milliseconds) are repeated alone, within :data:`SETUP_BUDGET_S`.
SETUP_SAMPLES = 31
SETUP_BUDGET_S = 1.0

#: Time (s) of :func:`reference_kernel` on the idle development host (a
#: 2-CPU Intel Xeon, Python 3.11.7).  Host times are reported at this speed.
HOST_REFERENCE_S = 0.025
#: Reference-kernel samples taken before each timed repetition.
REFERENCE_SAMPLES = 5

#: End-to-end metrics (host time, profiling off): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_us_per_s": "us/s",
    "block_events_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

#: Layers whose share of profiled self time is reported.
LAYERS = (
    "sim", "gpu", "core", "memory", "utils", "host", "serving", "cluster",
    "telemetry", "validation", "obs",
)

#: Exact call counts read from the run's profile: metric -> (file, function).
PROFILE_COUNTS: Dict[str, Tuple[str, str]] = {
    "gpu.blockrun_spans": ("repro/gpu/kernel.py", "take_fresh_span"),
    "core.issuable_checks": ("repro/core/framework/framework.py", "kernel_has_issuable_work"),
    "memory.page_maps": ("repro/memory/address_space.py", "map"),
    "utils.stable_hash_calls": ("repro/utils/determinism.py", "stable_hash"),
    "cluster.epoch_batches": ("repro/cluster/worker.py", "execute_epoch"),
    "cluster.system_builds": ("repro/system.py", "__init__"),
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.self_share": "ratio",
    "sim.events": "count",
    "sim.peak_queue": "count",
    "sim.blocks_per_event": "ratio",
    "gpu.self_share": "ratio",
    "gpu.blocks_executed": "count",
    "gpu.blocks_preempted": "count",
    "gpu.completion_waves": "count",
    "gpu.blockrun_spans": "count",
    "gpu.retained_launches": "count",
    "core.self_share": "ratio",
    "core.issuable_checks": "count",
    "core.preemptions": "count",
    "memory.self_share": "ratio",
    "memory.page_maps": "count",
    "utils.self_share": "ratio",
    "utils.stable_hash_calls": "count",
    "host.self_share": "ratio",
    "serving.self_share": "ratio",
    "serving.arrived": "count",
    "serving.admitted": "count",
    "serving.dropped": "count",
    "serving.completed": "count",
    "cluster.self_share": "ratio",
    "cluster.epochs": "count",
    "cluster.epoch_batches": "count",
    "cluster.system_builds": "count",
    "cluster.epoch_s": "s",
    "loadgen.synth_s": "s",
    "loadgen.calibrate_s": "s",
    "loadgen.compile_s": "s",
    "loadgen.probes": "count",
    "telemetry.self_share": "ratio",
    "telemetry.trace_events": "count",
    "validation.self_share": "ratio",
    "validation.violations": "count",
    "obs.self_share": "ratio",
    "obs.metric_rows": "count",
    "profile_overhead_x": "x",
    "sim_makespan_us": "us",
    "sim_p50_us": "us",
    "sim_hp_p99_us": "us",
    "slo_miss_ratio": "ratio",
    "failed_ratio": "ratio",
}


@dataclass
class RunResult:
    """The result line plus what is printed around it."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    provenance: Dict[str, object]
    spans: Spans
    notes: List[str] = field(default_factory=list)

    def line(self) -> str:
        """The single-line JSON object the benchmark ends with."""
        for name, unit in self.units.items():
            check_metric(name, unit)
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def load_digests(path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """Stored digests: digest family -> seed -> summary digest."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def digest_key(workload, seed: int) -> str:
    """Stored-digest key: the seed, or ``preset`` for a seed-independent input."""
    return str(seed) if workload.seeded else "preset"


def source_sha256(root: str = REPRO_ROOT) -> str:
    """Hash of the simulator's sources: its identity outside a git checkout."""
    hasher = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def git_sha(root: str = ROOT) -> Optional[str]:
    """The checkout's commit, or ``None`` when it is not a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def peak_rss_mib() -> float:
    """This process's resident-set high-water mark (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def bump(self) -> int:
        self.value += 1
        return self.value


def reference_kernel(n: int = 30_000) -> int:
    """Fixed interpreter work shaped like the simulator's: heap, dict, calls.

    It depends on no simulator code, so timing it measures the host's speed
    at that moment, whatever the commit under test.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, _Node] = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = table.get(x & 255)
        if node is None:
            node = table[x & 255] = _Node(x & 255, 0)
        heapq.heappush(heap, (node.bump() + (x & 1023), i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(heap)


@dataclass
class Reps:
    """Timed repetitions of one invocation (durations in seconds)."""

    setups: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    outputs: List[Output] = field(default_factory=list)
    scenario_sha: str = ""


def timed_setup(workload, seed: int, spans: Spans):
    """One set-up and its duration (s), after freeing what came before."""
    gc.collect()
    with spans.span("setup") as setup:
        case = workload.setup(seed, spans)
    return case, setup.end - setup.start


def timed_reps(workload, seed: int, seconds: float, spans: Spans) -> Reps:
    """Sample the reference kernel, set up and run, until ``seconds`` pass."""
    reps = Reps()
    deadline = time.perf_counter() + seconds
    while len(reps.walls) < MIN_REPS or time.perf_counter() < deadline:
        for _ in range(REFERENCE_SAMPLES):
            started = time.perf_counter()
            reference_kernel()
            reps.references.append(time.perf_counter() - started)
        case, setup_s = timed_setup(workload, seed, spans)
        with spans.span("run") as run:
            reps.outputs.append(workload.execute(case))
        reps.scenario_sha = reps.scenario_sha or digest(case.scenario.to_dict())
        del case
        reps.setups.append(setup_s)
        reps.walls.append(run.end - run.start)
    return reps


def extra_setups(workload, seed: int, setups: List[float], spans: Spans) -> None:
    """Add set-up samples until :data:`SETUP_SAMPLES` or the budget runs out."""
    spent = 0.0
    while len(setups) < SETUP_SAMPLES and spent + statistics.median(setups) <= SETUP_BUDGET_S:
        case, setup_s = timed_setup(workload, seed, spans)
        del case
        setups.append(setup_s)
        spent += setup_s


def profiled(workload, seed: int):
    """One profiled set-up and one profiled execution.

    Returns (output, run stats, set-up stats, traced wall seconds).  The
    set-up profile only supplies set-up call counts; shares come from the run.
    """
    gc.collect()
    setup_profile = cProfile.Profile()
    setup_profile.enable()
    case = workload.setup(seed, Spans())
    setup_profile.disable()
    run_profile = cProfile.Profile()
    started = time.perf_counter()
    run_profile.enable()
    output = workload.execute(case)
    run_profile.disable()
    traced_wall = time.perf_counter() - started
    return (
        output,
        pstats.Stats(run_profile).stats,
        pstats.Stats(setup_profile).stats,
        traced_wall,
    )


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    traced: Output,
    run_stats,
    setup_stats,
    *,
    traced_wall: float,
    raw_wall: float,
    wall: float,
    spans: Spans,
    failed: int,
    attempted: int,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of a traced run (0 where a layer idles)."""
    values: Dict[str, float] = {name: 0 for name in PER_LAYER}
    layer_shares = shares(self_time_by_package(run_stats, REPRO_ROOT), LAYERS)
    values.update({f"{layer}.self_share": share for layer, share in layer_shares.items()})
    values.update(traced.counts)
    values.update(traced.sim)
    for name, (path, function) in PROFILE_COUNTS.items():
        values[name] = call_count(run_stats, path, function)
    values["sim.events"] = traced.events
    values["sim.blocks_per_event"] = ratio(traced.block_events, traced.events)
    values["validation.violations"] = traced.violations
    values["cluster.epoch_s"] = ratio(wall, values["cluster.epochs"])
    for stage in ("synth", "calibrate", "compile"):
        values[f"loadgen.{stage}_s"] = median_or_zero(spans.durations(f"loadgen.{stage}"))
    values["loadgen.probes"] = call_count(
        setup_stats, "repro/loadgen/calibrate.py", "probe_service_time_us"
    )
    values["profile_overhead_x"] = ratio(traced_wall, raw_wall)
    values["failed_ratio"] = ratio(failed, attempted)
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False) -> RunResult:
    """Run workload ``name`` once, as the benchmark command does."""
    workload = WORKLOADS[name](tiny)
    spans = Spans()
    reps = timed_reps(workload, seed, seconds, spans)
    rss = peak_rss_mib()
    extra_setups(workload, seed, reps.setups, spans)
    outputs = reps.outputs
    first = outputs[0]
    # A neighbour's load slows whole runs on a shared host; the reference
    # kernel, timed between repetitions, slows with them.  Host times are
    # scaled to the kernel's development-host speed (see README.md).
    raw_wall = statistics.median(reps.walls)
    speed = HOST_REFERENCE_S / statistics.median(reps.references)
    wall = raw_wall * speed

    checked = list(outputs)
    with spans.span("check.reference"):
        reference = workload.reference(seed)
    if reference is not None:
        checked.append(reference)
    traced = None
    if trace:
        with spans.span("profile"):
            traced, run_stats, setup_stats, traced_wall = profiled(workload, seed)
        checked.append(traced)

    # Digests are stored for the full-size inputs only.
    stored = (
        None if tiny
        else load_digests().get(workload.digest_family, {}).get(digest_key(workload, seed))
    )
    expected = stored if stored is not None else first.digest
    mismatches = sum(1 for output in checked if output.digest != expected)
    attempted = sum(output.arrived for output in outputs)
    failed = mismatches + sum(output.dropped + output.violations for output in outputs)

    if trace:
        metrics = layer_metrics(
            traced, run_stats, setup_stats, traced_wall=traced_wall,
            raw_wall=raw_wall, wall=wall, spans=spans, failed=failed,
            attempted=attempted,
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(reps.setups) * speed,
            "wall_s": wall,
            "sim_us_per_s": first.simulated_us / wall,
            "block_events_per_s": first.block_events / wall,
            "requests_per_s": first.completed / wall,
            "peak_rss_mib": rss,
        }
        units = END_TO_END
    notes = [
        f"{len(reps.walls)} timed repetitions: median {raw_wall:.4f} s, fastest "
        f"{min(reps.walls):.4f} s; reference kernel {1 / speed:.3f}x its "
        f"nominal time; digest {first.digest[:16]}"
    ]
    if stored is None:
        notes.append(f"no stored digest for seed {seed}: checked repetitions against each other")
    return RunResult(
        correct=mismatches == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        units=units,
        provenance={
            "git_sha": git_sha(),
            "src_sha256": source_sha256(),
            "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "scenario_sha256": reps.scenario_sha,
            "host_speed": speed,
        },
        spans=spans,
        notes=notes,
    )


def record_digests(seeds, path: str = DIGESTS_PATH) -> Dict[str, Dict[str, str]]:
    """Recompute the stored digest of every digest family for ``seeds``."""
    table: Dict[str, Dict[str, str]] = {}
    for name, factory in WORKLOADS.items():
        workload = factory()
        if workload.digest_family in table:
            continue
        family: Dict[str, str] = {}
        for seed in seeds if workload.seeded else seeds[:1]:
            case = workload.setup(seed, Spans())
            family[digest_key(workload, seed)] = workload.execute(case).digest
        table[workload.digest_family] = family
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return table
