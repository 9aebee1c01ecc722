"""Figure 8: ANTT of every simulated workload (S-curves).

For every random workload the average normalized turnaround time under FCFS,
DSS with context switch and DSS with draining is reported.  The paper plots
the per-scheme values sorted ascending against the fraction of workloads
(an S-curve per scheme, one panel per process count); this experiment prints
the same sorted series.

Expected shape: the DSS curves sit below the FCFS curve for most workloads;
the fraction of improved workloads grows with the process count; the DSS-CS
and DSS-draining curves cross.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.figure_data import FigureData, collect

_SCHEMES = ("fcfs", "dss_cs", "dss_drain")
_LABELS = {"fcfs": "FCFS", "dss_cs": "DSS context switch", "dss_drain": "DSS draining"}


def run(
    config: Optional[ExperimentConfig] = None,
    *,
    data: Optional[FigureData] = None,
) -> ExperimentResult:
    """Regenerate Figure 8 (sorted per-workload ANTT series)."""
    config = config if config is not None else ExperimentConfig()
    own_grid = data is None
    data = collect("dss", config) if own_grid else data

    result = ExperimentResult(
        name="Figure 8",
        description="ANTT for all simulated workloads (sorted per scheme)",
        headers=["Processes", "Scheme", "Workload rank", "ANTT"],
    )

    curves: Dict[int, Dict[str, List[float]]] = {}
    improved_fraction: Dict[int, Dict[str, float]] = {}
    for process_count in config.process_counts:
        curves[process_count] = {}
        improved_fraction[process_count] = {}
        workload_ids = [spec.workload_id for spec in data.workloads[process_count]]
        per_scheme_antt = {
            scheme: {
                wid: data.result(process_count, wid, scheme).metrics.antt
                for wid in workload_ids
            }
            for scheme in _SCHEMES
        }
        for scheme in _SCHEMES:
            sorted_antt = sorted(per_scheme_antt[scheme].values())
            curves[process_count][scheme] = sorted_antt
            for rank, antt in enumerate(sorted_antt):
                result.rows.append([process_count, _LABELS[scheme], rank, round(antt, 3)])
        for scheme in ("dss_cs", "dss_drain"):
            improved = sum(
                1
                for wid in workload_ids
                if per_scheme_antt[scheme][wid] < per_scheme_antt["fcfs"][wid]
            )
            improved_fraction[process_count][scheme] = improved / len(workload_ids)

    result.series["curves"] = curves
    result.series["improved_fraction"] = improved_fraction
    result.notes.append(
        "The 'improved_fraction' series records the fraction of workloads whose ANTT is "
        "better under DSS than under FCFS; the paper reports ~20% at 2 processes, ~70% at "
        "4 processes and almost all workloads at 6 and 8 processes."
    )
    if own_grid:
        result.count_runs(data.results.values())
    return result
