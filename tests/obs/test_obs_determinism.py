"""Observability must never perturb results: metrics-on/off byte-identity.

The metrics hub rides None-gated engine hooks and read-only samplers, so
enabling it must leave every simulated quantity byte-identical — across a
50-seed fuzz sweep of (policy x mechanism x controller) closed-loop
scenarios, open-loop serving runs, and the batch runner (where the exported
JSONL series must also be byte-identical serial vs parallel).
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from repro.runner import BatchRunner, execute_scenario
from repro.scenario import SchemeSpec
from repro.serving.driver import run_serving
from repro.system import GPUSystem
from repro.workloads.large_gpu import generate_large_gpu_scenario
from repro.workloads.synthetic import (
    generate_synthetic_scenario,
    generate_synthetic_scenarios,
)

from test_hub import make_serving_scenario

#: Fuzzed (policy, mechanism, controller) grid; cycled over the seed sweep so
#: all 50 seeds cover every combination several times.
SCHEME_GRID = tuple(
    itertools.product(
        ("fcfs", "npq", "ppq", "dss"),
        ("context_switch", "draining"),
        (None, "hybrid", "adaptive"),
    )
)

FUZZ_SEEDS = tuple(range(50))


def _scheme_for(seed: int) -> SchemeSpec:
    policy, mechanism, controller = SCHEME_GRID[seed % len(SCHEME_GRID)]
    return SchemeSpec(
        name=f"fuzz_{seed}",
        policy=policy,
        mechanism=mechanism,
        transfer_policy="npq",
        controller=controller,
    )


def _strip_metrics(record_dict):
    """Drop the observability-only fields so on/off record dicts compare.

    Mirrors ``_strip_trace`` in ``tests/telemetry/test_identity.py``: the
    scenario dict legitimately differs (one run asked for metrics), but no
    simulated quantity may.
    """
    out = json.loads(json.dumps(record_dict))
    out["scenario"].pop("metrics", None)
    return out


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_scenarios_identical_with_metrics(seed):
    scheme = _scheme_for(seed)
    on = generate_synthetic_scenario(
        seed, scale="smoke", scheme=scheme, metrics={"interval_us": 50.0}
    )
    off = generate_synthetic_scenario(seed, scale="smoke", scheme=scheme)
    observed = execute_scenario(on)
    plain = execute_scenario(off)
    assert _strip_metrics(observed.to_dict()) == _strip_metrics(plain.to_dict())


@pytest.mark.parametrize("seed", (0, 17, 43))
def test_fuzzed_serving_runs_identical_with_metrics(seed):
    """Open-loop runs included: summaries byte-identical with metrics on."""
    base = make_serving_scenario()
    arrivals = dict(base.arrivals)
    arrivals["tenants"] = [
        dict(t, seed=t["seed"] + seed) for t in arrivals["tenants"]
    ]
    import dataclasses

    off = dataclasses.replace(base, arrivals=arrivals)
    on = dataclasses.replace(
        base, arrivals=arrivals, metrics={"interval_us": 500.0}
    )
    observed = run_serving(on)
    plain = run_serving(off)
    assert observed.metrics_rows is not None
    assert plain.metrics_rows is None
    assert json.dumps(observed.summary, sort_keys=True) == json.dumps(
        plain.summary, sort_keys=True
    )
    assert observed.events_processed == plain.events_processed


def _large_gpu_run(num_sms, metrics):
    """One ``large_gpu`` preset run: (system, what it simulated)."""
    scenario = generate_large_gpu_scenario(num_sms, metrics=metrics)
    system = GPUSystem.from_scenario(scenario)
    system.run(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    stats = system.execution_engine.utilization_snapshot()
    return system, {
        "events_processed": system.simulator.events_processed,
        "block_completion_events": stats["block_completion_events"],
        "makespan_us": system.simulator.now,
        "iteration_times_us": system.iteration_times_us(),
    }


@pytest.mark.parametrize("num_sms, events", [(8, 345), (32, 644)])
def test_large_gpu_presets_identical_with_metrics(num_sms, events):
    """The wave-batched presets fire the same events, waves and iterations
    with the hub probing every event (rows every 100 simulated µs)."""
    _, plain = _large_gpu_run(num_sms, None)
    observed_system, observed = _large_gpu_run(num_sms, {"interval_us": 100.0})
    assert observed == plain
    assert plain["events_processed"] == events
    assert len(observed_system.metrics.rows) > 1


def test_serial_and_parallel_metrics_artifacts_identical(tmp_path):
    scenarios = generate_synthetic_scenarios(
        4, seed=9, scale="smoke", metrics={"interval_us": 20.0}
    )
    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = BatchRunner(jobs=1, metrics_dir=str(serial_dir)).run(scenarios)
    parallel = BatchRunner(jobs=3, metrics_dir=str(parallel_dir)).run(scenarios)
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
    serial_files = sorted(p.name for p in serial_dir.iterdir())
    parallel_files = sorted(p.name for p in parallel_dir.iterdir())
    assert serial_files == parallel_files == sorted(
        f"{i:04d}-" + _slug(s) + ".metrics.jsonl" for i, s in enumerate(scenarios)
    )
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes()


def _slug(scenario) -> str:
    import re

    return re.sub(r"[^a-zA-Z0-9_.-]+", "-", scenario.describe()).strip("-").lower()


def test_batch_runner_skips_artifacts_for_unobserved_scenarios(tmp_path):
    mixed = [
        generate_synthetic_scenario(1, scale="smoke", metrics={"interval_us": 20.0}),
        generate_synthetic_scenario(2, scale="smoke"),
    ]
    out = tmp_path / "metrics"
    BatchRunner(jobs=1, metrics_dir=str(out)).run(mixed)
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 1 and names[0].startswith("0000-")


def test_install_observer_rejects_double_install():
    """Satellite: attaching the same observer instance twice must fail loudly."""
    from repro.system import GPUSystem
    from repro.workloads.synthetic import generate_synthetic_scenario

    scenario = generate_synthetic_scenario(3, scale="smoke")
    system = GPUSystem.from_scenario(scenario)

    class Observer:
        def on_event_fired(self, event, now):  # pragma: no cover - not fired
            pass

    observer = Observer()
    system.install_observer(observer)
    with pytest.raises(ValueError):
        system.install_observer(observer)
