"""The vectorised BlockRun issue path: engagement and span fidelity.

Byte-identity of the run representation is proven by the wave-equivalence
fuzz (the batched and forced per-block engines produce identical artifacts
with it on); these tests pin the other half — that the fast path actually
*engages* on the workloads built for it (jitter-free large_gpu refills)
and stays off whenever an observer needs real per-block state, and that a
materialised span recreates exactly the blocks the per-block path makes.
"""

from __future__ import annotations

import pytest

from repro.gpu.blockrun import BlockRun
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import ThreadBlock, ThreadBlockState
from repro.scenario import ScenarioSpec
from repro.sim.observers import BaseObserver
from repro.system import GPUSystem
from repro.workloads.large_gpu import generate_large_gpu_scenario


def _run_counting_start_run(monkeypatch, *, validate):
    calls = []
    real = StreamingMultiprocessor.start_run

    def counting(self, run, **kwargs):
        calls.append(run.count)
        return real(self, run, **kwargs)

    monkeypatch.setattr(StreamingMultiprocessor, "start_run", counting)
    scenario = generate_large_gpu_scenario(8)
    if validate:
        import dataclasses

        scenario = dataclasses.replace(scenario, validate=True)
    system = GPUSystem.from_scenario(scenario)
    system.run(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    return calls, system


def test_fast_span_path_engages_on_jitter_free_refills(monkeypatch):
    calls, system = _run_counting_start_run(monkeypatch, validate=False)
    # The steady state issues whole spans: most of the grid goes through
    # start_run, and spans are real batches rather than degenerate 1-runs.
    stats = system.execution_engine.utilization_snapshot()
    assert sum(calls) > int(stats["blocks_executed"]) / 2
    assert max(calls) > 1


def test_observers_force_the_exact_per_block_path(monkeypatch):
    calls, system = _run_counting_start_run(monkeypatch, validate=True)
    assert calls == []
    assert not system.violations()


class _CompletionRecorder(BaseObserver):
    def __init__(self):
        self.completed = []

    def on_block_completed(self, sm, block):
        self.completed.append(block)


def _run_observed_from(install_at_us, *, wave_batching):
    scenario = generate_large_gpu_scenario(8)
    if not wave_batching:
        payload = scenario.to_dict()
        overrides = payload["config_overrides"]
        overrides["gpu"] = {**overrides["gpu"], "wave_batching": False}
        scenario = ScenarioSpec.from_dict(payload)
    system = GPUSystem.from_scenario(scenario)
    limits = dict(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    sms = system.execution_engine.sms()
    system.run(until_us=install_at_us, **limits)
    spans_before = sum(len(sm._runs) for sm in sms)
    executed_before = sum(sm.blocks_executed for sm in sms)
    recorder = _CompletionRecorder()
    system.install_observer(recorder)
    assert all(not sm._runs for sm in sms)
    system.run(**limits)
    report = system.execution_engine.utilization_snapshot()
    report.pop("block_completion_events")
    results = (report, system.iteration_times_us(), system.simulator.now)
    executed_after = sum(sm.blocks_executed for sm in sms) - executed_before
    return results, recorder, spans_before, executed_after


def test_installing_an_observer_rebuilds_resident_spans_as_blocks():
    results, recorder, spans_before, executed_after = _run_observed_from(
        500.0, wave_batching=True
    )
    assert spans_before > 0
    # One notification per block completed after the install, each a block.
    assert len(recorder.completed) == executed_after > 0
    assert all(type(block) is ThreadBlock for block in recorder.completed)
    exact, exact_recorder, _, _ = _run_observed_from(500.0, wave_batching=False)
    assert results == exact
    assert [b.key for b in recorder.completed] == [b.key for b in exact_recorder.completed]


def test_materialised_span_matches_the_per_block_issue(synthetic_launch=None):
    from repro.gpu.kernel import KernelLaunch, KernelSpec
    from repro.gpu.resources import ResourceUsage

    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=12, avg_tb_time_us=4.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    reference = KernelLaunch(spec=spec, launch_id=7, context_id=1)
    vectorised = KernelLaunch(spec=spec, launch_id=7, context_id=1)

    expected = reference.take_fresh_blocks(5)
    for block in expected:
        block.start(sm_id=3, now=10.5)

    first, taken = vectorised.take_fresh_span(5)
    assert (first, taken) == (0, 5)
    run = BlockRun(vectorised, first, taken, spec.avg_tb_time_us)
    run.start_time_us = 10.5
    assert run.key == expected[0].key

    produced = run.materialise(sm_id=3)
    assert [b.key for b in produced] == [b.key for b in expected]
    for mine, theirs in zip(produced, expected):
        assert mine.execution_time_us == theirs.execution_time_us
        assert mine.state is ThreadBlockState.RUNNING is theirs.state
        assert mine.sm_id == theirs.sm_id
        assert mine.first_start_time_us == theirs.first_start_time_us
        assert mine.last_start_time_us == theirs.last_start_time_us
    # The launch-side cursors agree too: same next index.
    assert vectorised.unissued_blocks == reference.unissued_blocks


def test_note_completed_finishes_the_launch_exactly_once():
    from repro.gpu.kernel import KernelLaunch, KernelSpec, KernelState
    from repro.gpu.resources import ResourceUsage

    finished = []
    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=6, avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    launch = KernelLaunch(
        spec=spec, launch_id=1, context_id=1,
        on_complete=lambda kernel, now: finished.append(now),
    )
    launch.take_fresh_span(6)
    launch.note_completed(4, 5.0)
    assert launch.state is not KernelState.FINISHED
    launch.note_completed(2, 9.0)
    assert launch.state is KernelState.FINISHED
    assert launch.completion_time_us == 9.0
    assert finished == [9.0]
    with pytest.raises(RuntimeError):
        launch.note_completed(1, 10.0)


def test_single_block_run_label_matches_the_per_block_label(simulator, gpu_config):
    from repro.gpu.kernel import KernelLaunch, KernelSpec
    from repro.gpu.resources import ResourceUsage

    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=4, avg_tb_time_us=2.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    launch = KernelLaunch(spec=spec, launch_id=9, context_id=1)
    launch.take_fresh_span(2)
    first, taken = launch.take_fresh_span(1)
    sm = StreamingMultiprocessor(2, gpu_config, simulator)
    sm.configure(
        ksr_index=0, context_id=1, page_table_base=0x1000,
        max_resident_blocks=4, shared_memory_config=16 * 1024,
    )
    sm.start_run(BlockRun(launch, first, taken, 2.0), extra_latency_us=0.0,
                 on_complete=lambda block: None)
    assert simulator.pending_labels() == ["sm2.block(9, 2).complete"]


def test_resident_run_blocks_release_and_configure(simulator, gpu_config):
    """A resident span holds the SM like resident blocks do."""
    from repro.gpu.kernel import KernelLaunch, KernelSpec
    from repro.gpu.resources import ResourceUsage

    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=4, avg_tb_time_us=2.0,
        usage=ResourceUsage(registers_per_block=1, shared_memory_per_block=0),
    )
    launch = KernelLaunch(spec=spec, launch_id=3, context_id=1)
    first, taken = launch.take_fresh_span(4)
    sm = StreamingMultiprocessor(0, gpu_config, simulator)
    setup = dict(
        ksr_index=0, context_id=1, page_table_base=0x1000,
        max_resident_blocks=4, shared_memory_config=16 * 1024,
    )
    sm.configure(**setup)
    sm.start_run(BlockRun(launch, first, taken, 2.0), extra_latency_us=0.0,
                 on_complete=lambda block: None)
    with pytest.raises(RuntimeError, match="release"):
        sm.release()
    with pytest.raises(RuntimeError, match="configure"):
        sm.configure(**setup)
    assert sm.resident_blocks == 4
