"""Figure 7: effects of equal sharing (DSS) on NTT, fairness and throughput.

Three panels, all comparing the DSS policy (equal token budgets, both
preemption mechanisms) against the FCFS baseline on the same random
workloads:

* **7a** — per-application NTT improvement, grouped by the application's
  Class-2 label (SHORT / MEDIUM / LONG) plus the all-application AVERAGE.
* **7b** — system fairness improvement.
* **7c** — system throughput (STP) degradation.

Expected shape: SHORT applications improve the most and LONG applications
lose; the average NTT and fairness improve (context switch above draining);
STP degrades (draining worse than context switch); all trends grow with the
process count.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult, geometric_mean
from repro.experiments.figure_data import FigureData, collect
from repro.workloads.parboil import CLASS2

GROUPS = ("SHORT", "MEDIUM", "LONG", "AVERAGE")
_DSS_SCHEMES = ("dss_cs", "dss_drain")


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    data: Optional[FigureData] = None,
) -> ExperimentResult:
    """Regenerate Figure 7 (all three panels as one table)."""
    config = config if config is not None else ExperimentConfig()
    own_grid = data is None
    data = collect("dss", config) if own_grid else data

    result = ExperimentResult(
        name="Figure 7",
        description="Equal sharing (DSS) vs FCFS: NTT improvement, fairness, throughput",
        headers=[
            "Panel",
            "Group",
            "Processes",
            "DSS context switch (x)",
            "DSS draining (x)",
        ],
    )

    # ------------------------------------------------------------------
    # Panel (a): per-application NTT improvement grouped by Class 2
    # ------------------------------------------------------------------
    ntt_improvements: Dict[str, Dict[int, Dict[str, List[float]]]] = {
        group: {count: {scheme: [] for scheme in _DSS_SCHEMES} for count in config.process_counts}
        for group in GROUPS
    }
    for process_count in config.process_counts:
        for spec in data.workloads[process_count]:
            fcfs = data.result(process_count, spec.workload_id, "fcfs")
            for scheme in _DSS_SCHEMES:
                dss = data.result(process_count, spec.workload_id, scheme)
                for process_name, app in fcfs.process_applications.items():
                    improvement = (
                        fcfs.metrics.ntt_of(process_name) / dss.metrics.ntt_of(process_name)
                    )
                    group = CLASS2.get(app, "MEDIUM")
                    ntt_improvements[group][process_count][scheme].append(improvement)
                    ntt_improvements["AVERAGE"][process_count][scheme].append(improvement)

    for group in GROUPS:
        for process_count in config.process_counts:
            per_scheme = ntt_improvements[group][process_count]
            if not per_scheme["dss_cs"]:
                continue
            result.rows.append(
                [
                    "7a NTT improvement",
                    group,
                    process_count,
                    round(geometric_mean(per_scheme["dss_cs"]), 2),
                    round(geometric_mean(per_scheme["dss_drain"]), 2),
                ]
            )

    # ------------------------------------------------------------------
    # Panels (b) and (c): fairness improvement and STP degradation
    # ------------------------------------------------------------------
    fairness_improvements: Dict[int, Dict[str, List[float]]] = {}
    stp_degradations: Dict[int, Dict[str, List[float]]] = {}
    for process_count in config.process_counts:
        fairness_improvements[process_count] = {scheme: [] for scheme in _DSS_SCHEMES}
        stp_degradations[process_count] = {scheme: [] for scheme in _DSS_SCHEMES}
        for spec in data.workloads[process_count]:
            fcfs = data.result(process_count, spec.workload_id, "fcfs")
            for scheme in _DSS_SCHEMES:
                dss = data.result(process_count, spec.workload_id, scheme)
                if fcfs.metrics.fairness > 0 and dss.metrics.fairness > 0:
                    fairness_improvements[process_count][scheme].append(
                        dss.metrics.fairness / fcfs.metrics.fairness
                    )
                stp_degradations[process_count][scheme].append(
                    fcfs.metrics.stp / dss.metrics.stp
                )

    for process_count in config.process_counts:
        per_scheme = fairness_improvements[process_count]
        if per_scheme["dss_cs"]:
            result.rows.append(
                [
                    "7b fairness improvement",
                    "ALL",
                    process_count,
                    round(geometric_mean(per_scheme["dss_cs"]), 2),
                    round(geometric_mean(per_scheme["dss_drain"]), 2),
                ]
            )
    for process_count in config.process_counts:
        per_scheme = stp_degradations[process_count]
        if per_scheme["dss_cs"]:
            result.rows.append(
                [
                    "7c STP degradation",
                    "ALL",
                    process_count,
                    round(geometric_mean(per_scheme["dss_cs"]), 2),
                    round(geometric_mean(per_scheme["dss_drain"]), 2),
                ]
            )

    result.series["ntt_improvements"] = ntt_improvements
    result.series["fairness_improvements"] = fairness_improvements
    result.series["stp_degradations"] = stp_degradations
    result.notes.append(
        f"Scale preset: {config.scale}; {config.workloads_per_count} random workload(s) per "
        "process count; ratios aggregated with the geometric mean."
    )
    result.notes.append(
        "Paper reference (full scale): average NTT improvement 1.5x-2x (CS) / 1.4x-1.65x "
        "(draining); fairness improvement up to 3.35x (CS) / 2.7x (draining); STP degradation "
        "1.06x-1.34x (CS) / 1.08x-1.5x (draining)."
    )
    if own_grid:
        result.count_runs(data.results.values())
    return result
