"""Trace-driven serving: synthesized FaaS traffic vs matched-rate Poisson.

The paper's mechanisms are evaluated under fixed multiprogram mixes; the
ROADMAP's north star is "millions of users" hitting shared GPUs.  This
experiment drives the serving layer with exactly that: a seed-deterministic
``azure_faas`` workload trace (Zipf-skewed tenant rates, Pareto-tailed
interarrival gaps, diurnal envelope, MMPP burst epochs — see
:mod:`repro.loadgen.synth`) is calibrated onto the synthetic app family at a
target utilization (:mod:`repro.loadgen.calibrate`), compiled into replay
scenarios (:mod:`repro.loadgen.compile`) and run under three preemption
controllers (static context switching, ``hybrid``, ``adaptive``).  A
*matched-rate Poisson* twin — same applications, same per-tenant mean rates,
memoryless gaps — runs next to each trace scenario, so every row pair
isolates what burstiness (the trace's KS distance from Poisson, reported in
the notes) does to admission drops and tail latency under that controller.

All results are deterministic and byte-identical whether the scenarios run
serially or across worker processes (``--jobs``).

    repro-experiments trace_serving --scale smoke
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.loadgen.calibrate import calibrate_trace
from repro.loadgen.compile import compile_serving_scenario
from repro.loadgen.synth import synthesize_trace
from repro.loadgen.validate import gap_stats
from repro.runner import RunRecord
from repro.scenario import ScenarioSpec, SchemeSpec

#: Trace source driving the experiment.
TRACE_SOURCE = "azure_faas"
#: Tenants in the synthesized trace.
NUM_TENANTS = 4
#: Simulated horizon at full workload scale (µs); scaled by ``tb_scale``.
HORIZON_US = 1_200_000.0
#: Per-tenant mean interarrival gap at full scale (µs); scaled like the
#: horizon so the request count is scale-invariant.
MEAN_INTERARRIVAL_US = 12_800.0
#: Utilization the calibration fits the offered load to.
TARGET_UTILIZATION = 0.6

#: The compared schemes: PPQ scheduling with context-switch preemption under
#: three controllers (the satellite requirement: 2+ preemption controllers).
SCHEMES: Tuple[SchemeSpec, ...] = (
    SchemeSpec(
        name="ppq_static_cs",
        policy="ppq",
        mechanism="context_switch",
        controller="static",
    ),
    SchemeSpec(
        name="ppq_hybrid",
        policy="ppq",
        mechanism="context_switch",
        controller="hybrid",
    ),
    SchemeSpec(
        name="ppq_adaptive",
        policy="ppq",
        mechanism="context_switch",
        controller="adaptive",
    ),
)


def build_trace(config: ExperimentConfig):
    """Synthesize the driving trace at the config's scale and seed."""
    factor = config.workload_scale().tb_scale
    return synthesize_trace(
        TRACE_SOURCE,
        seed=config.seed,
        horizon_us=HORIZON_US * factor,
        num_tenants=NUM_TENANTS,
        mean_interarrival_us=MEAN_INTERARRIVAL_US * factor,
    )


def _poisson_twin(scenario: ScenarioSpec, trace) -> ScenarioSpec:
    """The matched-rate Poisson variant of a compiled trace scenario."""
    arrivals = dict(scenario.arrivals)
    tenants = []
    for slot, tenant in enumerate(trace.tenants):
        count = len(tenant.arrivals_us)
        mean = trace.horizon_us / count if count else trace.horizon_us
        tenants.append(
            {
                "process": "poisson",
                "seed": slot,
                "priority": tenant.priority,
                "mean_interarrival_us": round(mean, 3),
            }
        )
    arrivals["tenants"] = tenants
    return dataclasses.replace(scenario, arrivals=arrivals)


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Run trace-driven vs Poisson serving under the compared controllers."""
    config = config if config is not None else ExperimentConfig()
    trace = build_trace(config)
    calibration = calibrate_trace(
        trace,
        app_seed=config.seed,
        scale=config.scale,
        target_utilization=TARGET_UTILIZATION,
    )
    labels: List[Tuple[str, str]] = []
    scenarios: List[ScenarioSpec] = []
    for index, scheme in enumerate(SCHEMES):
        compiled = compile_serving_scenario(
            trace,
            calibration,
            scheme=scheme,
            workload_id=index,
        )
        compiled = dataclasses.replace(
            compiled,
            validate=config.validate,
            trace=config.trace,
            metrics=config.metrics_spec(),
        )
        labels.append((scheme.name, "trace"))
        scenarios.append(compiled)
        labels.append((scheme.name, "poisson"))
        scenarios.append(_poisson_twin(compiled, trace))
    records: List[RunRecord] = config.make_batch_runner().run(scenarios)

    trace_stats = gap_stats(trace.pooled_gaps_us())
    result = ExperimentResult(
        name="Trace-driven serving",
        description=(
            "synthesized azure_faas traffic vs matched-rate Poisson under "
            "static / hybrid / adaptive preemption control"
        ),
        headers=[
            "Scheme",
            "Stream",
            "Arrived",
            "Admitted",
            "Dropped",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "SLO viol",
        ],
    )
    for (scheme_name, stream), record in zip(labels, records):
        summary = record.result.serving_summary
        queue = summary["queue"]
        latency = summary["latency_us"]
        result.rows.append(
            [
                scheme_name,
                stream,
                queue["arrived"],
                queue["admitted"],
                queue["dropped"],
                round(latency["p50"], 2),
                round(latency["p95"], 2),
                round(latency["p99"], 2),
                summary["slo_violations_total"],
            ]
        )
        result.series[f"summary/{scheme_name}/{stream}"] = summary
    result.series["calibration"] = calibration.to_dict()
    result.series["trace_stats"] = {
        key: round(value, 6) for key, value in trace_stats.items()
    }

    result.count_runs(record.result for record in records)
    result.notes.append(
        f"Trace {trace.name}: {trace.total_arrivals} arrivals across "
        f"{NUM_TENANTS} tenants, horizon {trace.horizon_us:.0f} us; KS "
        f"distance from Poisson {trace_stats['ks_to_exponential']:.4f}, "
        f"gap CV {trace_stats['cv']:.3f}."
    )
    result.notes.append(
        f"Calibration: target utilization {TARGET_UTILIZATION}, achieved "
        f"{calibration.achieved_utilization:.3f} at scale {calibration.scale} "
        f"(size factor {calibration.size_factor:.3f})."
    )
    result.notes.append(
        "Each trace row has a matched-rate Poisson twin: same applications "
        "and per-tenant mean rates, memoryless gaps — the delta is the cost "
        "of burstiness under that preemption controller."
    )
    return result


__all__ = [
    "TRACE_SOURCE",
    "NUM_TENANTS",
    "HORIZON_US",
    "MEAN_INTERARRIVAL_US",
    "TARGET_UTILIZATION",
    "SCHEMES",
    "build_trace",
    "run",
]
