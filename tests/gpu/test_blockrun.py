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
from repro.gpu.thread_block import ThreadBlockState
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
    # The launch-side cursors agree too: same next index, same registry.
    assert vectorised.unissued_blocks == reference.unissued_blocks
    assert sorted(b.block_index for b in vectorised.materialised_blocks()) == sorted(
        b.block_index for b in reference.materialised_blocks()
    )


def test_note_span_completed_finishes_the_launch_exactly_once():
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
    launch.note_span_completed(4, 5.0)
    assert launch.state is not KernelState.FINISHED
    launch.note_span_completed(2, 9.0)
    assert launch.state is KernelState.FINISHED
    assert launch.completion_time_us == 9.0
    assert finished == [9.0]
    with pytest.raises(RuntimeError):
        launch.note_span_completed(1, 10.0)
