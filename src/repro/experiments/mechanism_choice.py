"""Per-preemption mechanism choice: the paper's tradeoff as a controller comparison.

The paper frames context switching and SM draining as two points on a
latency-vs-overhead tradeoff (Sec. 3.2): the context switch bounds the
preemption latency but pays save/restore overhead; draining is overhead-free
but its latency tracks the remaining execution time of resident blocks.  It
then argues the hardware could pick between them dynamically, per preemption.
This experiment measures exactly that: the same workloads as
:mod:`repro.experiments.preemption_latency` (Parboil priority mixes and
synthetic fuzzer mixes under PPQ) are run under four preemption
*controllers*:

* ``static_cs`` / ``static_drain`` — the legacy fixed mechanisms (the two
  endpoints of the tradeoff),
* ``hybrid`` — deadline-bounded draining with a context-switch fallback,
* ``adaptive`` — cost-model selection minimizing estimated SM-idle time.

Per controller the report shows the preemption-latency distribution (count,
p50, p95, max — measured from the telemetry preemption spans, each tagged
with the mechanism the controller actually chose), the mechanism mix, and
the mean ANTT (the overhead side of the tradeoff).  The headline expectation
is that ``hybrid`` sits *between* the endpoints: p95 latency no worse than
draining's, ANTT no worse than the context switch's.

    repro-experiments mechanism_choice --scale smoke
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.base import ExperimentConfig, ExperimentResult, arithmetic_mean
from repro.experiments.preemption_latency import (
    merge_latency_samples,
    parboil_latency_scenarios,
    synthetic_latency_scenarios,
)
from repro.runner import RunRecord
from repro.scenario import SchemeSpec
from repro.telemetry.analytics import latency_stats

#: The controllers under comparison.  Policy and transfer policy are fixed
#: (PPQ / NPQ) so the only varying dimension is how each preemption request
#: is resolved into a mechanism.
CONTROLLER_SCHEMES: Dict[str, SchemeSpec] = {
    "static_cs": SchemeSpec(
        name="ppq_static_cs",
        policy="ppq",
        mechanism="context_switch",
        transfer_policy="npq",
    ),
    "static_drain": SchemeSpec(
        name="ppq_static_drain",
        policy="ppq",
        mechanism="draining",
        transfer_policy="npq",
    ),
    "hybrid": SchemeSpec(
        name="ppq_hybrid",
        policy="ppq",
        mechanism="context_switch",
        transfer_policy="npq",
        controller="hybrid",
        # Tighter than the 25 us library default: smoke/reduced-scale blocks
        # are short, and the deadline must actually bite for the experiment
        # to exercise both sides of the fallback.
        controller_options={"drain_budget_us": 10.0},
    ),
    "adaptive": SchemeSpec(
        name="ppq_adaptive",
        policy="ppq",
        mechanism="context_switch",
        transfer_policy="npq",
        controller="adaptive",
    ),
}


def _mechanism_mix(records: List[RunRecord]) -> Dict[str, int]:
    """Preemption counts per chosen mechanism, across all records."""
    mix: Dict[str, int] = {}
    for record in records:
        summary = record.trace_summary
        if not summary:
            continue
        for mechanism, samples in summary["preemption_latencies_us"].items():
            mix[mechanism] = mix.get(mechanism, 0) + len(samples)
    return mix


def run(config: Optional[ExperimentConfig] = None) -> ExperimentResult:
    """Compare preemption controllers on latency and ANTT."""
    config = config if config is not None else ExperimentConfig()
    keyed = parboil_latency_scenarios(
        config, CONTROLLER_SCHEMES
    ) + synthetic_latency_scenarios(config, CONTROLLER_SCHEMES)
    records = config.make_batch_runner().run([spec for _, spec in keyed])

    grouped: Dict[str, List[RunRecord]] = {}
    for (controller_key, _), record in zip(keyed, records):
        grouped.setdefault(controller_key, []).append(record)

    result = ExperimentResult(
        name="Mechanism choice",
        description=(
            "preemption controllers (static endpoints vs hybrid/adaptive "
            "per-request selection): latency distribution and ANTT overhead"
        ),
        headers=[
            "Controller",
            "Mechanism mix",
            "Preemptions",
            "p50 (us)",
            "p95 (us)",
            "max (us)",
            "mean ANTT",
        ],
    )
    for controller_key in CONTROLLER_SCHEMES:
        controller_records = grouped.get(controller_key, [])
        if not controller_records:
            # An empty scenario grid (e.g. process_counts=()) produces an
            # empty report, matching preemption_latency's behaviour.
            continue
        samples = merge_latency_samples(controller_records)
        stats = latency_stats(samples)
        mix = _mechanism_mix(controller_records)
        mix_text = (
            " ".join(f"{name}:{count}" for name, count in sorted(mix.items()))
            or "-"
        )
        mean_antt = arithmetic_mean(
            [record.result.metrics.antt for record in controller_records]
        )
        result.rows.append(
            [
                controller_key,
                mix_text,
                stats["count"],
                round(stats["p50"], 2),
                round(stats["p95"], 2),
                round(stats["max"], 2),
                round(mean_antt, 4),
            ]
        )
        result.series[f"latencies/{controller_key}"] = sorted(samples)
        result.series[f"antt/{controller_key}"] = [
            record.result.metrics.antt for record in controller_records
        ]

    result.count_runs(record.result for record in records)
    result.notes.append(
        f"Scale preset: {config.scale}; {len(records)} traced runs per the "
        f"preemption_latency workload sources (Parboil priority mixes + synthetic "
        f"fuzzer mixes on a narrowed GPU), seed {config.seed}."
    )
    result.notes.append(
        "Expected shape (paper Sec. 3.2): hybrid sits between the endpoints — "
        "p95 latency <= static draining's (deadline bound), mean ANTT <= static "
        "context switch's (drains when draining is cheap, so less state moved)."
    )
    return result


__all__ = ["CONTROLLER_SCHEMES", "run"]
