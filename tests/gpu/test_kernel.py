"""Tests for kernel specs and kernel launches."""

from __future__ import annotations

import pytest

from repro.gpu.kernel import KernelLaunch, KernelSpec, KernelState
from repro.gpu.resources import ResourceUsage
from repro.utils.determinism import DeterministicJitter


def make_spec(blocks: int = 8, tb_time: float = 10.0) -> KernelSpec:
    return KernelSpec(
        name="k",
        benchmark="bench",
        num_thread_blocks=blocks,
        avg_tb_time_us=tb_time,
        usage=ResourceUsage(registers_per_block=1024, shared_memory_per_block=0),
    )


def make_launch(blocks: int = 8, jitter: DeterministicJitter | None = None) -> KernelLaunch:
    return KernelLaunch(spec=make_spec(blocks), launch_id=1, context_id=1, jitter=jitter)


class TestKernelSpec:
    def test_qualified_name(self):
        assert make_spec().qualified_name == "bench.k"

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(blocks=0)
        with pytest.raises(ValueError):
            make_spec(tb_time=0.0)

    def test_nominal_kernel_time(self):
        assert make_spec(blocks=8, tb_time=10.0).nominal_kernel_time_us == pytest.approx(80.0)

    def test_scaled_preserves_per_block_properties(self):
        spec = make_spec(blocks=100)
        scaled = spec.scaled(0.25)
        assert scaled.num_thread_blocks == 25
        assert scaled.avg_tb_time_us == spec.avg_tb_time_us
        assert scaled.usage == spec.usage

    def test_scaled_never_drops_below_one_block(self):
        assert make_spec(blocks=2).scaled(0.01).num_thread_blocks == 1

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            make_spec().scaled(0.0)


class TestKernelLaunch:
    def test_initial_state(self):
        launch = make_launch()
        assert launch.state is KernelState.PENDING
        assert launch.has_unissued_blocks
        assert launch.unissued_blocks == 8
        assert launch.completed_blocks == 0
        assert not launch.is_finished

    def test_take_fresh_blocks_issues_in_order(self):
        launch = make_launch(blocks=3)
        blocks = launch.take_fresh_blocks(2) + launch.take_fresh_blocks(5)
        assert [b.block_index for b in blocks] == [0, 1, 2]
        assert not launch.has_unissued_blocks
        assert launch.take_fresh_blocks(1) == []

    def test_spans_and_blocks_share_one_issue_cursor(self):
        launch = make_launch(blocks=8)
        assert launch.take_fresh_span(3) == (0, 3)
        assert [b.block_index for b in launch.take_fresh_blocks(2)] == [3, 4]
        assert launch.take_fresh_span(10) == (5, 3)
        assert launch.take_fresh_span(1) == (8, 0)
        assert launch.unissued_blocks == 0

    def test_completion_tracking_and_callback(self):
        completions = []
        launch = make_launch(blocks=2)
        launch.on_complete = lambda l, t: completions.append((l.launch_id, t))
        for block in launch.take_fresh_blocks(2):
            block.start(0, 0.0)
            block.complete(5.0)
            launch.note_completed(block.count, 5.0)
        assert launch.is_finished
        assert launch.completion_time_us == 5.0
        assert completions == [(1, 5.0)]

    def test_without_jitter_blocks_take_average_time(self):
        launch = make_launch(blocks=4, jitter=None)
        times = [block.execution_time_us for block in launch.take_fresh_blocks(4)]
        assert times == [10.0] * 4

    def test_jitter_varies_block_times_deterministically(self):
        jitter = DeterministicJitter(seed=11, spread=0.2)
        launch_a = make_launch(blocks=16, jitter=jitter)
        launch_b = make_launch(blocks=16, jitter=jitter)
        times_a = [launch_a.block_execution_time(i) for i in range(16)]
        times_b = [launch_b.block_execution_time(i) for i in range(16)]
        assert times_a == times_b
        assert len(set(times_a)) > 1
        assert all(8.0 <= t <= 12.0 for t in times_a)

    def test_describe_mentions_kernel_and_context(self):
        text = make_launch().describe()
        assert "bench.k" in text
        assert "ctx=1" in text
