"""Workloads: Parboil benchmark models and multiprogrammed workload generation.

* :mod:`repro.workloads.parboil` — the ten Parboil applications of the
  paper's Table 1, encoded as kernel statistics plus synthesised application
  traces.
* :mod:`repro.workloads.multiprogram` — random multiprogrammed workload
  composition, the replay methodology of Sec. 4.1, and helpers to run a
  workload under a chosen policy/mechanism and collect per-process timings.
* :mod:`repro.workloads.scale` — the reduced-scale presets used to keep
  Python simulation times tractable (documented substitution, DESIGN.md
  Sec. 3.6).
* :mod:`repro.workloads.synthetic` — the seeded scenario fuzzer: arbitrary
  multiprogram mixes (grid sizes, footprints, phase balance, arrivals,
  priorities, process counts) derived from a single integer seed.
* :mod:`repro.workloads.large_gpu` — the modern-scale scenario family:
  8/32/128-SM GPUs with proportionally grown synthetic workloads, used by
  the ``scale`` experiment and the ``perfbench/`` closed loops.
"""

from repro.workloads.large_gpu import (
    LARGE_GPU_SM_COUNTS,
    generate_large_gpu_scenario,
    generate_large_gpu_scenarios,
)
from repro.workloads.multiprogram import (
    IsolatedBaseline,
    WorkloadResult,
    WorkloadRunner,
    WorkloadSpec,
    generate_priority_workloads,
    generate_random_workloads,
)
from repro.workloads.parboil import (
    BENCHMARK_NAMES,
    KernelRecord,
    ParboilApplication,
    ParboilSuite,
    TABLE1_RECORDS,
)
from repro.workloads.scale import WorkloadScale
from repro.workloads.synthetic import (
    SyntheticSuite,
    build_synthetic_trace,
    generate_synthetic_scenario,
    generate_synthetic_scenarios,
)

__all__ = [
    "LARGE_GPU_SM_COUNTS",
    "generate_large_gpu_scenario",
    "generate_large_gpu_scenarios",
    "SyntheticSuite",
    "build_synthetic_trace",
    "generate_synthetic_scenario",
    "generate_synthetic_scenarios",
    "KernelRecord",
    "TABLE1_RECORDS",
    "BENCHMARK_NAMES",
    "ParboilApplication",
    "ParboilSuite",
    "WorkloadScale",
    "WorkloadSpec",
    "WorkloadResult",
    "WorkloadRunner",
    "IsolatedBaseline",
    "generate_random_workloads",
    "generate_priority_workloads",
]
