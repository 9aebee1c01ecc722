"""Preemption-latency distributions per mechanism (the paper's headline metric).

The paper's central trade-off is *preemption latency*: the context switch
pays a predictable save/restore cost while SM draining waits for resident
thread blocks — unpredictable and unbounded for long blocks (Sec. 3.2,
Table 1).  This experiment measures that latency directly from the telemetry
subsystem (:mod:`repro.telemetry`): every run is traced, each preemption's
``preempt_request`` → ``preempt_complete`` interval is collected, and the
per-scheme distributions (count, p50, p95, max — a CDF in ``series``) are
reported across two workload sources:

* **parboil** — the paper's priority workloads (a high-priority process per
  workload) under PPQ with both mechanisms;
* **synthetic** — seed-derived fuzzer scenarios (:mod:`repro.workloads.synthetic`)
  re-run under the same two schemes, so the mechanisms face identical mixes.

Tracing observes, never perturbs; with ``--trace`` the per-scenario Chrome
trace artifacts are exported as well::

    repro-experiments preemption_latency --scale smoke --trace
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.priority_data import PRIORITY_SCHEMES
from repro.runner import RunRecord
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.workloads.multiprogram import generate_priority_workloads
from repro.workloads.synthetic import generate_synthetic_scenarios
from repro.telemetry.analytics import latency_stats

#: The two preemptive schemes under comparison (policy fixed to PPQ so the
#: only varying dimension is the mechanism).
SCHEMES = ("ppq_cs", "ppq_drain")


def parboil_latency_scenarios(
    config: ExperimentConfig, schemes: Mapping[str, SchemeSpec]
) -> List[Tuple[str, ScenarioSpec]]:
    """(scheme key, spec) for the paper's priority workloads, traced.

    Shared by this experiment and :mod:`repro.experiments.mechanism_choice`
    (which compares preemption *controllers* over the same workloads).
    """
    benchmarks = list(config.benchmarks) if config.benchmarks else None
    out: List[Tuple[str, ScenarioSpec]] = []
    for process_count in config.process_counts:
        workloads = generate_priority_workloads(
            process_count,
            workloads_per_benchmark=config.workloads_per_benchmark,
            seed=config.seed,
            benchmarks=benchmarks,
        )
        for spec in workloads:
            for scheme_name, scheme in schemes.items():
                out.append(
                    (
                        scheme_name,
                        ScenarioSpec.for_workload(
                            spec,
                            scheme,
                            scale=config.scale,
                            validate=config.validate,
                            trace=True,
                        ),
                    )
                )
    return out


def _parboil_scenarios(config: ExperimentConfig) -> List[Tuple[str, ScenarioSpec]]:
    """(scheme label, spec) for the paper's priority workloads, traced."""
    return parboil_latency_scenarios(
        config, {name: PRIORITY_SCHEMES[name] for name in SCHEMES}
    )


#: SM count for the synthetic latency source.  Fuzzer kernels carry small,
#: scale-reduced grids that cannot saturate the full 13-SM GK110, and a
#: scheduling policy only preempts a saturated GPU; two SMs keep every
#: seed-derived mix contended so preemption latencies actually occur.
SYNTHETIC_NUM_SMS = 2


def synthetic_latency_scenarios(
    config: ExperimentConfig, schemes: Mapping[str, SchemeSpec]
) -> List[Tuple[str, ScenarioSpec]]:
    """(scheme key, spec) for fuzzer mixes re-run under each scheme.

    Two adjustments make the fuzzer mixes a *latency* workload: the GPU is
    narrowed to :data:`SYNTHETIC_NUM_SMS` (small seed-derived grids cannot
    saturate 13 SMs, and an unsaturated GPU never preempts), and the last
    process to arrive is promoted to high priority (a priority inversion is
    what triggers preemption under PPQ).
    """
    base = generate_synthetic_scenarios(
        config.workloads_per_count,
        seed=config.seed,
        scale=config.scale,
        validate=config.validate,
        trace=True,
    )
    out: List[Tuple[str, ScenarioSpec]] = []
    for spec in base:
        spec = dataclasses.replace(
            spec,
            high_priority_index=spec.num_processes - 1,
            config_overrides={"gpu": {"num_sms": SYNTHETIC_NUM_SMS}},
        )
        for scheme_name, scheme in schemes.items():
            out.append((scheme_name, dataclasses.replace(spec, scheme=scheme)))
    return out


def _synthetic_scenarios(config: ExperimentConfig) -> List[Tuple[str, ScenarioSpec]]:
    """(scheme label, spec) for fuzzer mixes re-run under both schemes."""
    return synthetic_latency_scenarios(
        config, {name: PRIORITY_SCHEMES[name] for name in SCHEMES}
    )


def merge_latency_samples(records: List[RunRecord]) -> List[float]:
    """Concatenate every mechanism's latency samples across records.

    Shared with :mod:`repro.experiments.mechanism_choice` so both consumers
    of ``trace_summary["preemption_latencies_us"]`` stay in lockstep.
    """
    samples: List[float] = []
    for record in records:
        summary = record.trace_summary
        if not summary:
            continue
        for mechanism_samples in summary["preemption_latencies_us"].values():
            samples.extend(mechanism_samples)
    return samples


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Measure preemption-latency distributions for both mechanisms."""
    config = config if config is not None else ExperimentConfig()
    keyed = [
        ("parboil", scheme, spec) for scheme, spec in _parboil_scenarios(config)
    ] + [
        ("synthetic", scheme, spec) for scheme, spec in _synthetic_scenarios(config)
    ]
    records = config.make_batch_runner().run([spec for _, _, spec in keyed])

    grouped: Dict[Tuple[str, str], List[RunRecord]] = {}
    for (source, scheme, _), record in zip(keyed, records):
        grouped.setdefault((source, scheme), []).append(record)

    result = ExperimentResult(
        name="Preemption latency",
        description=(
            "per-mechanism preemption latency (reserve -> SM free), "
            "measured by the telemetry subsystem"
        ),
        headers=[
            "Workloads",
            "Scheme",
            "Mechanism",
            "Preemptions",
            "p50 (us)",
            "p95 (us)",
            "max (us)",
        ],
    )
    for (source, scheme_name) in sorted(grouped):
        scheme = PRIORITY_SCHEMES[scheme_name]
        samples = merge_latency_samples(grouped[(source, scheme_name)])
        stats = latency_stats(samples)
        result.rows.append(
            [
                source,
                scheme.label,
                scheme.mechanism,
                stats["count"],
                round(stats["p50"], 2),
                round(stats["p95"], 2),
                round(stats["max"], 2),
            ]
        )
        result.series[f"latencies/{source}/{scheme.label}"] = sorted(samples)

    result.violation_count = sum(len(record.violations) for record in records)
    result.events_processed = sum(record.result.events_processed for record in records)
    result.traced_run_count = sum(
        1 for record in records if record.trace_summary is not None
    )
    result.trace_event_count = sum(
        record.trace_summary["events_total"]
        for record in records
        if record.trace_summary is not None
    )
    result.notes.append(
        f"Scale preset: {config.scale}; {len(records)} traced runs "
        f"({len(grouped[('parboil', SCHEMES[0])])} Parboil priority workloads and "
        f"{len(grouped[('synthetic', SCHEMES[0])])} synthetic mixes per scheme, "
        f"seed {config.seed}).  Latency is preempt_request -> preempt_complete per SM; "
        f"synthetic mixes run on a {SYNTHETIC_NUM_SMS}-SM GPU with the last-arriving "
        "process promoted to high priority (see module docstring)."
    )
    result.notes.append(
        "Expected shape (paper Sec. 3.2): the context switch pays a bounded, "
        "save-size-dependent cost; draining's latency tracks the remaining "
        "execution time of resident blocks (larger spread, larger tail)."
    )
    return result
