"""Scale-out sweep: the ``large_gpu`` scenario family across SM counts.

Runs one :mod:`repro.workloads.large_gpu` scenario per SM count (8, 32 and
128 by default) and reports, per configuration, the simulated span, the
thread blocks executed, the heap events the slotted engine actually
processed (wave batching collapses same-instant completions into shared
events), the wall-clock time and the block-equivalent simulation throughput
(one event per thread-block completion regardless of wave aggregation, so
the number is comparable across engine versions)::

    repro-experiments scale --scale smoke

Composes with ``--validate`` / ``--trace`` like every other experiment; the
wall-clock columns are machine-dependent by nature (everything else is
deterministic).  ``benchmarks/bench_scale.py`` wraps the same family for the
repository's tracked performance trajectory.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.runner import RunRecord, execute_scenario, runner_for
from repro.workloads.large_gpu import LARGE_GPU_SM_COUNTS, generate_large_gpu_scenario


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run the scaling sweep and report per-SM-count throughput."""
    config = config if config is not None else ExperimentConfig()
    result = ExperimentResult(
        name="Scale",
        description="large_gpu scaling sweep (wave-batched simulation core)",
        headers=[
            "SMs",
            "Processes",
            "Blocks",
            "Heap events",
            "Simulated (us)",
            "Wall (s)",
            "Events/s (block-eq)",
        ],
    )
    records: List[RunRecord] = []
    for num_sms in LARGE_GPU_SM_COUNTS:
        scenario = generate_large_gpu_scenario(
            num_sms,
            scale=config.scale,
            validate=config.validate,
            trace=config.trace,
            metrics=config.metrics_spec(),
        )
        # Warm the isolated baselines (the denominators of the multiprogram
        # metrics) outside the timed region: the wall-clock column measures
        # the multiprogrammed simulation, not one-off baseline caching.
        runner = runner_for(scenario)
        for app in dict.fromkeys(scenario.applications):
            runner.baseline.time_us(app)
        started = time.perf_counter()
        # One scenario at a time: the wall-clock column is the point of this
        # experiment, so runs are never overlapped even with --jobs.
        record = execute_scenario(scenario)
        wall = time.perf_counter() - started
        records.append(record)

        stats = record.result.engine_stats
        blocks = int(stats.get("blocks_executed", 0))
        events = record.result.events_processed
        block_equivalent = block_equivalent_events(events, stats)
        rate = block_equivalent / wall if wall > 0 else 0.0
        result.rows.append(
            [
                num_sms,
                record.scenario.num_processes,
                blocks,
                events,
                round(record.result.simulated_time_us, 1),
                round(wall, 3),
                round(rate),
            ]
        )

    result.events_processed = sum(r.result.events_processed for r in records)
    result.violation_count = sum(len(r.violations) for r in records)
    result.traced_run_count = sum(1 for r in records if r.trace_summary is not None)
    result.trace_event_count = sum(
        r.trace_summary["events_total"] for r in records if r.trace_summary is not None
    )
    result.series["records"] = [record.to_dict() for record in records]
    result.notes.append(
        f"Scale preset: {config.scale}; SM counts {list(LARGE_GPU_SM_COUNTS)}; "
        "workloads grow proportionally with the SM count (see "
        "repro.workloads.large_gpu).  Wall-clock and events/s columns are "
        "machine-dependent; every other column is deterministic."
    )
    result.notes.append(
        "Events/s counts one event per thread-block completion regardless of "
        "wave aggregation, so it is comparable across engine versions."
    )
    return result


def block_equivalent_events(events_processed: int, engine_stats) -> int:
    """Events of a run counted at one event per thread-block completion.

    Wave batching makes several blocks share one heap event, so the raw
    ``events_processed`` of two engine versions are not comparable.  This
    replaces the fired block-carrying events (``block_completion_events``)
    with the block completions they represent (``blocks_executed``) —
    exactly the event count a per-block engine would have processed.  The
    single definition of the benchmark metric: the scale experiment,
    ``benchmarks/bench_scale.py`` and the equivalence tests all call it.
    """
    return int(
        events_processed
        - engine_stats.get("block_completion_events", 0)
        + engine_stats.get("blocks_executed", 0)
    )


__all__ = ["run", "block_equivalent_events"]
