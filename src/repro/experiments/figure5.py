"""Figure 5: turnaround-time improvement of the high-priority process.

For every priority workload the high-priority process's NTT under NPQ and
PPQ (both mechanisms) is compared against its NTT in the non-prioritized FCFS
execution of the same workload.  Improvements are averaged per Class-1 group
of the high-priority benchmark (LONG / MEDIUM / SHORT) and over all
workloads (AVERAGE), for 2/4/6/8-process workloads — the same grouping the
paper's Figure 5 uses.

Expected shape: PPQ >> NPQ >= 1; context switch above draining on average;
the SHORT group sees the largest improvements and the LONG group the
smallest; improvements grow with the number of processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult, geometric_mean
from repro.experiments.figure_data import FIGURE5_SCHEMES, FigureData, collect
from repro.workloads.parboil import CLASS1

GROUPS = ("LONG", "MEDIUM", "SHORT", "AVERAGE")
_IMPROVEMENT_SCHEMES = ("npq", "ppq_cs", "ppq_drain")


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    data: Optional[FigureData] = None,
) -> ExperimentResult:
    """Regenerate Figure 5."""
    config = config if config is not None else ExperimentConfig()
    own_grid = data is None
    data = collect("priority", config, schemes=FIGURE5_SCHEMES) if own_grid else data

    result = ExperimentResult(
        name="Figure 5",
        description=(
            "NTT improvement of the high-priority process over its non-prioritized "
            "(FCFS) execution"
        ),
        headers=["Group", "Processes", "NPQ", "PPQ context switch", "PPQ draining"],
    )

    improvements: Dict[str, Dict[int, Dict[str, List[float]]]] = {
        group: {count: {scheme: [] for scheme in _IMPROVEMENT_SCHEMES} for count in config.process_counts}
        for group in GROUPS
    }

    for process_count in config.process_counts:
        for spec in data.workloads[process_count]:
            baseline = data.result(process_count, spec.workload_id, "fcfs")
            baseline_ntt = baseline.high_priority_ntt()
            hp_app = spec.high_priority_application
            group = CLASS1.get(hp_app, "MEDIUM") if hp_app else "MEDIUM"
            for scheme in _IMPROVEMENT_SCHEMES:
                scheme_result = data.result(process_count, spec.workload_id, scheme)
                improvement = baseline_ntt / scheme_result.high_priority_ntt()
                improvements[group][process_count][scheme].append(improvement)
                improvements["AVERAGE"][process_count][scheme].append(improvement)

    for group in GROUPS:
        for process_count in config.process_counts:
            per_scheme = improvements[group][process_count]
            if not per_scheme["npq"]:
                continue
            result.rows.append(
                [
                    group,
                    process_count,
                    round(geometric_mean(per_scheme["npq"]), 2),
                    round(geometric_mean(per_scheme["ppq_cs"]), 2),
                    round(geometric_mean(per_scheme["ppq_drain"]), 2),
                ]
            )

    result.series["improvements"] = improvements
    result.notes.append(
        f"Scale preset: {config.scale}; {config.workloads_per_benchmark} workload(s) per "
        "high-priority benchmark per process count; improvements aggregated with the "
        "geometric mean (ratios)."
    )
    result.notes.append(
        "Paper reference (full scale): NPQ 1.1x-1.6x, PPQ with context switch 2x-15.6x, "
        "PPQ with draining 1.6x-6x on average, growing with the process count."
    )
    if own_grid:
        result.count_runs(data.results.values())
    return result
