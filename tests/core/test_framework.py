"""Tests for the scheduling-framework facade."""

from __future__ import annotations

import pytest

from repro.core.framework.framework import SchedulingFramework
from repro.gpu.command_queue import KernelCommand
from repro.gpu.config import SchedulerConfig, SystemConfig
from repro.gpu.kernel import KernelLaunch, KernelSpec, KernelState
from repro.gpu.resources import ResourceUsage
from repro.gpu.sm import SMState
from repro.gpu.thread_block import ThreadBlock


def make_command(context_id: int = 1, launch_id: int = 1, blocks: int = 4) -> KernelCommand:
    spec = KernelSpec(
        name=f"k{launch_id}", benchmark="b", num_thread_blocks=blocks, avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=64, shared_memory_per_block=0),
    )
    launch = KernelLaunch(spec=spec, launch_id=launch_id, context_id=context_id)
    command = KernelCommand(context_id=context_id, stream_id=0, launch=launch)
    command.enqueue_time_us = 0.0
    return command


@pytest.fixture
def framework() -> SchedulingFramework:
    return SchedulingFramework(SystemConfig())


def activate(framework: SchedulingFramework, command: KernelCommand):
    framework.buffer_command(command)
    return framework.activate_command(
        command, now=0.0, blocks_per_sm=4, shared_memory_config=16 * 1024
    )


class TestSizing:
    def test_tables_sized_by_sm_count(self, framework):
        assert framework.num_sms == 13
        assert framework.active_queue.capacity == 13
        assert framework.ksrt.capacity == 13
        assert len(framework.smst) == 13
        assert framework.ptbq(0).capacity == 13 * 16

    def test_explicit_active_kernel_limit(self):
        config = SystemConfig(scheduler=SchedulerConfig(max_active_kernels=2))
        framework = SchedulingFramework(config)
        assert framework.active_queue.capacity == 2


class TestActivation:
    def test_activate_moves_command_out_of_buffer(self, framework):
        command = make_command()
        entry = activate(framework, command)
        assert entry.launch is command.launch
        assert command.launch.state is KernelState.ACTIVE
        assert framework.pending_commands() == []
        assert framework.active_entries() == [entry]
        assert framework.ksr_index_for_launch(command.launch.launch_id) == entry.index

    def test_activate_requires_buffered_command(self, framework):
        command = make_command()
        with pytest.raises(ValueError):
            framework.activate_command(command, now=0.0, blocks_per_sm=1, shared_memory_config=0)

    def test_activation_caches_occupancy(self, framework):
        entry = activate(framework, make_command())
        assert entry.blocks_per_sm == 4
        assert entry.shared_memory_config == 16 * 1024

    def test_finish_requires_all_blocks_completed(self, framework):
        command = make_command(blocks=1)
        entry = activate(framework, command)
        with pytest.raises(RuntimeError):
            framework.finish_kernel(entry.index)

    def test_finish_frees_entry_and_returns_command(self, framework):
        command = make_command(blocks=1)
        entry = activate(framework, command)
        (block,) = command.launch.take_fresh_blocks(1)
        block.start(0, 0.0)
        block.complete(1.0)
        command.launch.note_completed(block.count, 1.0)
        finished = framework.finish_kernel(entry.index)
        assert finished is command
        assert not framework.ksr_valid(entry.index)
        assert framework.active_entries() == []


class TestWorkQueries:
    def test_kernel_has_issuable_work_tracks_unissued_blocks(self, framework):
        command = make_command(blocks=2)
        entry = activate(framework, command)
        assert framework.kernel_has_issuable_work(entry.index)
        assert framework.issuable_blocks(entry.index) == 2
        command.launch.take_fresh_blocks(2)
        assert not framework.kernel_has_issuable_work(entry.index)

    def test_preempted_blocks_count_as_issuable_work(self, framework):
        command = make_command(blocks=2)
        entry = activate(framework, command)
        block, _ = command.launch.take_fresh_blocks(2)
        block.start(0, 0.0)
        block.preempt(0.5)
        framework.push_preempted_block(entry.index, block)
        assert framework.kernel_has_issuable_work(entry.index)
        assert framework.preempted_block_count(entry.index) == 1
        assert framework.pop_preempted_block(entry.index) is block
        assert framework.pop_preempted_block(entry.index) is None

    def test_invalid_ksr_has_no_work(self, framework):
        assert not framework.kernel_has_issuable_work(5)
        assert framework.issuable_blocks(5) == 0

    def test_push_preempted_to_invalid_ksr_rejected(self, framework):
        with pytest.raises(KeyError):
            framework.push_preempted_block(3, ThreadBlock(9, 0, 1.0))


class TestSMTransitions:
    def test_setup_running_idle_cycle(self, framework):
        entry = activate(framework, make_command())
        framework.mark_sm_setup(0, entry.index)
        assert framework.sm_entry(0).state is SMState.SETUP
        assert 0 in entry.assigned_sms
        framework.mark_sm_running(0)
        assert framework.sm_entry(0).state is SMState.RUNNING
        assert framework.sms_running_kernel(entry.index) == [0]
        previous = framework.mark_sm_idle(0)
        assert previous == entry.index
        assert framework.sm_entry(0).is_idle
        assert 0 not in entry.assigned_sms

    def test_setup_requires_idle_sm(self, framework):
        entry = activate(framework, make_command())
        framework.mark_sm_setup(0, entry.index)
        with pytest.raises(RuntimeError):
            framework.mark_sm_setup(0, entry.index)

    def test_reserve_requires_running_sm(self, framework):
        entry = activate(framework, make_command())
        framework.mark_sm_setup(0, entry.index)
        with pytest.raises(RuntimeError):
            framework.mark_sm_reserved(0, None)
        framework.mark_sm_running(0)
        framework.mark_sm_reserved(0, next_ksr_index=None)
        assert framework.sm_entry(0).is_reserved

    def test_update_reservation(self, framework):
        entry = activate(framework, make_command())
        framework.mark_sm_setup(0, entry.index)
        framework.mark_sm_running(0)
        framework.mark_sm_reserved(0, next_ksr_index=None)
        framework.update_sm_reservation(0, 5)
        assert framework.sm_entry(0).next_ksr_index == 5
        with pytest.raises(RuntimeError):
            framework.update_sm_reservation(1, 5)

    def test_idle_sms_shrinks_as_sms_are_assigned(self, framework):
        entry = activate(framework, make_command())
        assert len(framework.idle_sms()) == 13
        framework.mark_sm_setup(3, entry.index)
        assert 3 not in framework.idle_sms()
        assert len(framework.idle_sms()) == 12


def test_snapshot_reports_counts(framework):
    entry = activate(framework, make_command())
    snapshot = framework.snapshot()
    assert snapshot["active_kernels"] == 1
    assert snapshot["idle_sms"] == 13
    assert snapshot["kernels_activated"] == 1
