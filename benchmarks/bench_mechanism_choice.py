"""Benchmark: the mechanism-choice (preemption controller) experiment.

Runs the hybrid/adaptive controller comparison over the preemption_latency
workload sources and asserts the headline tradeoff property: the hybrid
controller's latency tail is bounded by static draining's while its ANTT
overhead stays within static context switching's.
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import mechanism_choice


def test_mechanism_choice(benchmark, experiment_config):
    result = run_once(benchmark, mechanism_choice.run, experiment_config)
    rows = {row["Controller"]: row for row in result.row_dicts()}
    assert set(rows) == {"static_cs", "static_drain", "hybrid", "adaptive"}
    for row in rows.values():
        assert row["Preemptions"] > 0
    # The hybrid scenario actually exercises both sides of its fallback...
    mix = rows["hybrid"]["Mechanism mix"]
    assert "context_switch:" in mix and "draining:" in mix
    # ...and sits between the static endpoints on the tradeoff.
    assert rows["hybrid"]["p95 (us)"] <= rows["static_drain"]["p95 (us)"]
    assert rows["hybrid"]["mean ANTT"] <= rows["static_cs"]["mean ANTT"]
