"""Figure 6: system-throughput cost of preemptive prioritization.

STP degradation of the preemptive priority-queue scheduler over the
non-preemptive one (NPQ), for the two PPQ variants:

* **Figure 6a — exclusive access**: while high-priority kernels are active,
  low-priority kernels are never scheduled onto free SMs.
* **Figure 6b — shared access**: free SMs are back-filled with low-priority
  kernels (the back-to-back behaviour of current GPUs), which the paper shows
  to be counter-productive under preemption.

Expected shape: degradation >= 1 everywhere; draining costs more than context
switch; the shared-access variant costs more than the exclusive one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult, geometric_mean
from repro.experiments.figure_data import FigureData, collect

_VARIANTS = {
    "exclusive (Fig. 6a)": ("ppq_cs", "ppq_drain"),
    "shared (Fig. 6b)": ("ppq_shared_cs", "ppq_shared_drain"),
}


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    data: Optional[FigureData] = None,
) -> ExperimentResult:
    """Regenerate Figure 6 (both panels)."""
    config = config if config is not None else ExperimentConfig()
    own_grid = data is None
    data = collect("priority", config) if own_grid else data

    result = ExperimentResult(
        name="Figure 6",
        description="STP degradation of PPQ over NPQ (exclusive and shared access)",
        headers=[
            "Access",
            "Processes",
            "PPQ context switch (x)",
            "PPQ draining (x)",
        ],
    )

    degradations: Dict[str, Dict[int, Dict[str, List[float]]]] = {}
    for variant, (cs_scheme, drain_scheme) in _VARIANTS.items():
        degradations[variant] = {}
        for process_count in config.process_counts:
            per_scheme: Dict[str, List[float]] = {cs_scheme: [], drain_scheme: []}
            for spec in data.workloads[process_count]:
                key = (process_count, spec.workload_id, "npq")
                if key not in data.results:
                    continue
                npq_stp = data.results[key].metrics.stp
                for scheme in (cs_scheme, drain_scheme):
                    scheme_key = (process_count, spec.workload_id, scheme)
                    if scheme_key not in data.results:
                        continue
                    per_scheme[scheme].append(npq_stp / data.results[scheme_key].metrics.stp)
            degradations[variant][process_count] = per_scheme
            if per_scheme[cs_scheme] and per_scheme[drain_scheme]:
                result.rows.append(
                    [
                        variant,
                        process_count,
                        round(geometric_mean(per_scheme[cs_scheme]), 3),
                        round(geometric_mean(per_scheme[drain_scheme]), 3),
                    ]
                )

    result.series["degradations"] = degradations
    result.notes.append(
        "Values above 1.0 mean PPQ achieves lower system throughput than NPQ. "
        "Paper reference (full scale): exclusive access 1.08x-1.12x (context switch) and "
        "1.09x-1.38x (draining); the shared-access variant is worse than exclusive."
    )
    if own_grid:
        result.count_runs(data.results.values())
    return result
