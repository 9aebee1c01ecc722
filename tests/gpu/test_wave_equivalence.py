"""Wave-batched vs per-block execution: observably identical, by fuzz.

The SM may aggregate same-instant thread-block completions into shared
"wave" heap events (``GPUConfig.wave_batching``, on by default) and, with no
observer attached, issue jitter-free refills as one ``BlockRun`` span, which
retires whole on the same path as a single block (a block is a span of
one).  Both are pure simulation optimisations: this fuzz runs 50
seed-derived scenarios — spread across every scheduling policy × preemption
mechanism × preemption controller combination, with jitter disabled so
waves actually form — once wave-batched and once with the exact per-block
path forced, and asserts byte-identical run artifacts: per-process timings,
multiprogram metrics, engine statistics, invariant-validation verdicts and
exported Chrome traces.  Open-loop serving runs, multi-GPU fleet runs and
serving checkpoints are compared the same way on a few fuzz seeds, and a
preemption grid compares runs in which spans retire on reserved SMs and at
kernel tails.
"""

from __future__ import annotations

import json

import pytest

from repro.gpu.blockrun import BlockRun
from repro.gpu.config import GPUConfig, SystemConfig
from repro.gpu.sm import SMState, StreamingMultiprocessor
from repro.runner import execute_scenario
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.system import GPUSystem
from repro.trace.generator import TraceGenerator
from repro.workloads.synthetic import (
    SCHEME_CONTROLLERS,
    SCHEME_MECHANISMS,
    SCHEME_POLICIES,
    generate_synthetic_scenario,
)

FUZZ_SEEDS = list(range(50))
COMBOS = [
    (policy, mechanism, controller)
    for policy in SCHEME_POLICIES
    for mechanism in SCHEME_MECHANISMS
    for controller in SCHEME_CONTROLLERS
]

#: Every completion-event count key that legitimately differs between the
#: wave-batched and per-block engines (fewer heap events, same behaviour).
_EVENT_DEPENDENT_STATS = {"block_completion_events"}


def _scheme_for_seed(seed: int) -> SchemeSpec:
    policy, mechanism, controller = COMBOS[seed % len(COMBOS)]
    controller_options = {}
    if controller == "hybrid":
        controller_options["drain_budget_us"] = [0.0, 2.0, 10.0, 40.0][seed % 4]
    return SchemeSpec(
        policy=policy,
        mechanism=mechanism,
        transfer_policy="npq" if seed % 2 else "fcfs",
        controller=controller,
        controller_options=controller_options,
        name=f"{policy}_{mechanism}_{controller or 'none'}",
    )


def _fuzz_scenario(
    seed: int, *, wave_batching: bool, validate: bool, **kwargs
) -> ScenarioSpec:
    overrides = {"tb_time_cv": 0.0}
    if not wave_batching:
        overrides["gpu"] = {"wave_batching": False}
    return generate_synthetic_scenario(
        seed,
        scale="smoke",
        validate=validate,
        scheme=_scheme_for_seed(seed),
        max_processes=4,
        config_overrides=overrides,
        **kwargs,
    )


def _artifacts(record) -> dict:
    """The run artifacts that must match between the two paths."""
    payload = record.to_dict()
    engine_stats = {
        key: value
        for key, value in payload["engine_stats"].items()
        if key not in _EVENT_DEPENDENT_STATS
    }
    return {
        "process_times_us": payload["process_times_us"],
        "process_applications": payload["process_applications"],
        "metrics": payload["metrics"],
        "engine_stats": engine_stats,
        "simulated_time_us": payload["simulated_time_us"],
        "validated": payload["validated"],
        "violations": payload["violations"],
        "trace": payload["trace"],
    }


def _serving_artifacts(record) -> str:
    """Canonical JSON of a serving or fleet record, minus its event counts."""
    payload = _artifacts(record)
    summary = json.loads(json.dumps(record.to_dict()["serving"]))
    for gpu in summary.get("per_gpu", ()):
        gpu.pop("events_processed")
    payload["serving"] = summary
    return json.dumps(payload, sort_keys=True)


def test_fuzz_covers_every_policy_mechanism_controller_combination():
    covered = {
        (s.scheme.policy, s.scheme.mechanism, s.scheme.controller)
        for s in (
            _fuzz_scenario(seed, wave_batching=True, validate=False)
            for seed in FUZZ_SEEDS
        )
    }
    assert covered == set(COMBOS)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_wave_batched_run_is_byte_identical_to_per_block_run(seed):
    # Half the seeds run with the invariant-validation observers attached, so
    # both the batched driver fast path (no observers) and the exact
    # interleaved path (observers present) are compared against per-block.
    validate = seed % 2 == 0
    waved = execute_scenario(_fuzz_scenario(seed, wave_batching=True, validate=validate))
    exact = execute_scenario(_fuzz_scenario(seed, wave_batching=False, validate=validate))
    if validate:
        assert waved.ok and exact.ok
    waved_artifacts, exact_artifacts = _artifacts(waved), _artifacts(exact)
    # The scenario specs differ only in the wave_batching override; artifacts
    # must not differ at all.  Compare through canonical JSON so the check is
    # a true byte-identity statement.
    assert json.dumps(waved_artifacts, sort_keys=True) == json.dumps(
        exact_artifacts, sort_keys=True
    ), f"seed {seed} ({waved.scenario.describe()}) diverged"


@pytest.mark.parametrize("seed", [0, 10, 20, 30, 40])
def test_wave_batched_traces_are_byte_identical(seed, tmp_path):
    """Traced runs export byte-identical Chrome trace artifacts."""
    spec_waved = _fuzz_scenario(seed, wave_batching=True, validate=False)
    spec_exact = _fuzz_scenario(seed, wave_batching=False, validate=False)
    spec_waved = ScenarioSpec.from_dict({**spec_waved.to_dict(), "trace": True})
    spec_exact = ScenarioSpec.from_dict({**spec_exact.to_dict(), "trace": True})
    path_waved = str(tmp_path / "waved.trace.json")
    path_exact = str(tmp_path / "exact.trace.json")
    waved = execute_scenario(spec_waved, trace_path=path_waved)
    exact = execute_scenario(spec_exact, trace_path=path_exact)
    with open(path_waved, "rb") as handle:
        waved_bytes = handle.read()
    with open(path_exact, "rb") as handle:
        exact_bytes = handle.read()
    assert waved_bytes == exact_bytes
    summary_waved = dict(waved.trace_summary, artifacts=None)
    summary_exact = dict(exact.trace_summary, artifacts=None)
    assert summary_waved == summary_exact


def test_wave_batching_reduces_heap_events_on_regular_grids():
    """On a jitter-free scenario the wave path processes fewer heap events."""
    waved = execute_scenario(_fuzz_scenario(3, wave_batching=True, validate=False))
    exact = execute_scenario(_fuzz_scenario(3, wave_batching=False, validate=False))
    assert waved.result.events_processed < exact.result.events_processed
    # Block-equivalent accounting reconciles the two counts exactly.
    from repro.experiments.scale import block_equivalent_events

    eq_waved = block_equivalent_events(
        waved.result.events_processed, waved.result.engine_stats
    )
    eq_exact = block_equivalent_events(
        exact.result.events_processed, exact.result.engine_stats
    )
    assert eq_waved == eq_exact


@pytest.mark.parametrize("seed", [1, 13, 27, 42])
def test_wave_batching_preserves_serving_runs(seed):
    """Open-loop serving scenarios (arrivals/admission/SLO) match exactly."""
    waved = execute_scenario(
        _fuzz_scenario(seed, wave_batching=True, validate=False, open_loop=True)
    )
    exact = execute_scenario(
        _fuzz_scenario(seed, wave_batching=False, validate=False, open_loop=True)
    )
    assert waved.result.events_processed < exact.result.events_processed
    assert _serving_artifacts(waved) == _serving_artifacts(exact), (
        f"serving seed {seed} diverged"
    )


@pytest.mark.parametrize("seed", [5, 18])
def test_wave_batching_preserves_fleet_runs(seed):
    """Multi-GPU fleet scenarios (routed epochs) match exactly."""
    waved = execute_scenario(
        _fuzz_scenario(seed, wave_batching=True, validate=False, cluster=True)
    )
    exact = execute_scenario(
        _fuzz_scenario(seed, wave_batching=False, validate=False, cluster=True)
    )
    assert waved.result.events_processed < exact.result.events_processed
    assert _serving_artifacts(waved) == _serving_artifacts(exact), (
        f"fleet seed {seed} diverged"
    )


def test_wave_batching_preserves_serving_checkpoints():
    """Quiesce checkpoints (the serving resume contract) match exactly."""
    from repro.serving.driver import run_serving

    outcomes = {}
    for wave_batching in (True, False):
        spec = _fuzz_scenario(
            3, wave_batching=wave_batching, validate=False, open_loop=True
        )
        horizon = float(spec.arrivals["horizon_us"])
        outcome = run_serving(spec, checkpoint_at=[horizon / 2])
        assert outcome.segments == 2
        outcomes[wave_batching] = outcome
    waved, exact = outcomes[True], outcomes[False]
    assert waved.events_processed < exact.events_processed
    assert json.dumps(waved.summary, sort_keys=True) == json.dumps(
        exact.summary, sort_keys=True
    )
    waved_checkpoint = dict(waved.checkpoint, events_processed=None)
    exact_checkpoint = dict(exact.checkpoint, events_processed=None)
    assert json.dumps(waved_checkpoint, sort_keys=True) == json.dumps(
        exact_checkpoint, sort_keys=True
    )


#: Runs whose preemptions land on spans: on 4 SMs, a 12,000-block
#: low-priority grid runs as jitter-free spans, and a 16-block high-priority
#: kernel arriving at each offset makes PPQ reserve SMs while spans are
#: resident, so spans retire on reserved SMs and at both kernels' tails.
PREEMPTION_GRID = [
    (mechanism, controller, start_us)
    for mechanism in ("draining", "context_switch")
    for controller in (None, "hybrid", "adaptive")
    for start_us in (3000.0, 3333.3, 4100.0, 4444.4)
]


def _preempted_system(mechanism, controller, start_us, *, wave_batching):
    config = SystemConfig(gpu=GPUConfig(num_sms=4, wave_batching=wave_batching), tb_time_cv=0.0)
    system = GPUSystem(config, policy="ppq", mechanism=mechanism, controller=controller)
    generator = TraceGenerator()
    low = generator.uniform_kernel("l", num_blocks=12000, tb_time_us=10.0, blocks_per_sm=4)
    high = generator.uniform_kernel("h", num_blocks=16, tb_time_us=10.0, blocks_per_sm=4)
    system.add_process("L", low, max_iterations=1)
    system.add_process("H", high, priority=1, start_delay_us=start_us, max_iterations=1)
    return system


def _preempted_run(mechanism, controller, start_us, *, wave_batching):
    system = _preempted_system(mechanism, controller, start_us, wave_batching=wave_batching)
    system.run()
    report = system.execution_engine.utilization_snapshot()
    report.pop("block_completion_events")
    return {
        "report": report,
        "iteration_times_us": system.iteration_times_us(),
        "now": system.simulator.now,
    }


@pytest.mark.parametrize("mechanism, controller, start_us", PREEMPTION_GRID)
def test_preempted_spans_match_the_per_block_run(mechanism, controller, start_us):
    waved = _preempted_run(mechanism, controller, start_us, wave_batching=True)
    exact = _preempted_run(mechanism, controller, start_us, wave_batching=False)
    assert waved["report"]["preemptions_completed"] >= 1
    assert json.dumps(waved, sort_keys=True) == json.dumps(exact, sort_keys=True)


def test_preemption_grid_retires_spans_on_reserved_sms_and_kernel_tails(monkeypatch):
    """The grid above reaches the span retires it exists for."""
    retired = {"reserved": 0, "tail": 0}
    systems = []
    real_retire = StreamingMultiprocessor._retire

    def counting(sm, unit, on_complete):
        if unit.__class__ is BlockRun:
            framework = systems[-1].execution_engine.framework
            if framework.sm_entry(sm.sm_id).state is SMState.RESERVED:
                retired["reserved"] += 1
            launch = unit.launch
            if launch.completed_blocks + unit.count == launch.spec.num_thread_blocks:
                retired["tail"] += 1
        real_retire(sm, unit, on_complete)

    monkeypatch.setattr(StreamingMultiprocessor, "_retire", counting)
    for config in PREEMPTION_GRID:
        systems.append(_preempted_system(*config, wave_batching=True))
        systems[-1].run()
    assert retired["reserved"] > 0
    assert retired["tail"] > 0
