"""Model test: the framework's incremental scheduler state equals a table scan.

The scheduling framework keeps four structures up to date instead of
recomputing them per scheduling tick: the active kernels in policy order,
the KSRT occupancy, the command buffers' pending count and, per kernel, the
SMs assigned to it.  Hypothesis drives random sequences of buffering and
activating commands, issuing, completing, preempting and restoring blocks,
finishing (or draining and finishing) kernels and moving SMs through idle, setup, running and reserved,
and after every step each structure must equal a scan of the tables.

SM moves follow the SM driver's protocol: a kernel's RUNNING SMs are
released before it finishes (they are empty by then), and a SETUP SM whose
kernel finished, or whose KSR index now names another kernel, is released
when its setup completes instead of running.  A RESERVED SM keeps naming its
kernel, finished or not, until the preemption frees it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework.framework import SchedulingFramework
from repro.gpu.command_queue import KernelCommand
from repro.gpu.config import GPUConfig, SchedulerConfig, SystemConfig
from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.gpu.sm import SMState

NUM_SMS = 4
ACTIVE_LIMIT = 3
CONTEXTS = 5

KINDS = (
    "buffer", "activate", "issue", "complete", "preempt", "restore", "finish",
    "drain", "setup", "running", "reserve", "idle", "tick", "bad_free", "bad_setup",
)
#: Long runs: kernels must be activated, drained and finished, and their
#: KSR indices recycled, before most interesting states exist.
OPS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 11), st.integers(0, 11)),
    min_size=60,
    max_size=200,
)


def _framework() -> SchedulingFramework:
    config = SystemConfig(
        gpu=GPUConfig(num_sms=NUM_SMS),
        scheduler=SchedulerConfig(max_active_kernels=ACTIVE_LIMIT),
    )
    return SchedulingFramework(config)


def _command(launch_id: int, context_id: int, priority: int, blocks: int, now: float):
    spec = KernelSpec(
        name=f"k{launch_id}", benchmark="b", num_thread_blocks=blocks, avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=64, shared_memory_per_block=0),
    )
    launch = KernelLaunch(
        spec=spec, launch_id=launch_id, context_id=context_id, priority=priority
    )
    command = KernelCommand(
        context_id=context_id, stream_id=0, priority=priority, launch=launch
    )
    command.enqueue_time_us = now
    return command


def _scan_order(framework):
    return sorted(
        framework.active_entries(),
        key=lambda e: (-e.priority, e.activation_time_us, e.index),
    )


def check_against_scans(framework: SchedulingFramework) -> None:
    """Every incremental structure equals a scan of the tables."""
    assert [id(e) for e in framework.policy_order] == [
        id(e) for e in _scan_order(framework)
    ]

    ksrt = framework.ksrt
    valid = [ksrt.find(i) for i in range(ksrt.capacity) if ksrt.find(i) is not None]
    assert ksrt.occupancy == len(ksrt) == len(valid)
    assert ksrt.has_free_entry is (len(valid) < ksrt.capacity)

    buffers = framework.command_buffers
    waiting = [buffers.peek(c) for c in buffers.contexts() if buffers.peek(c) is not None]
    assert buffers.occupancy() == len(waiting) == len(framework.pending_commands())
    assert framework.has_pending_commands is bool(waiting)
    assert buffers.has_pending is bool(waiting)

    smst = framework.smst
    assert smst.idle_count == sum(1 for e in smst if e.is_idle) == len(smst.idle_sms())
    assert smst.reserved_count == sum(1 for e in smst if e.is_reserved)
    for entry in framework.active_entries():
        running = sorted(
            sm for sm in entry.assigned_sms if smst.entry(sm).state is SMState.RUNNING
        )
        assert running == smst.sms_for_ksr(entry.index, state=SMState.RUNNING)


class _Model:
    """Drives one framework through the SM driver's protocol."""

    def __init__(self):
        self.framework = _framework()
        self.now = 0.0
        self.next_launch_id = 1
        #: launch id -> issued, uncompleted blocks not in a PTBQ.
        self.resident = {}
        #: SM id -> launch id the SM was set up for (the SM driver's check).
        self.setup_for = {}

    def pick(self, sequence, a):
        return sequence[a % len(sequence)] if sequence else None

    def invalid_indices(self):
        """Free in-range KSR indices, plus the two just out of range."""
        ksrt = self.framework.ksrt
        free = [i for i in range(ksrt.capacity) if not ksrt.is_valid(i)]
        return [-1, *free, ksrt.capacity]

    def release_running_sms(self, entry):
        smst = self.framework.smst
        for sm_id in sorted(entry.assigned_sms):
            if smst.entry(sm_id).state is SMState.RUNNING:
                self.framework.mark_sm_idle(sm_id)

    def step(self, kind, a, b):
        framework = self.framework
        order = framework.policy_order
        entry = self.pick(order, a)
        sm_id = a % NUM_SMS
        sm_entry = framework.sm_entry(sm_id)
        if kind == "buffer":
            command = _command(
                self.next_launch_id, a % CONTEXTS, b % 3, 1 + (a + b) % 4, self.now
            )
            self.next_launch_id += 1
            framework.buffer_command(command)
        elif kind == "activate":
            command = self.pick(framework.pending_commands(), a)
            if command is None:
                return
            if not framework.has_active_capacity:
                with pytest.raises(RuntimeError):
                    framework.ksrt.allocate(command.launch, activation_time_us=self.now)
                with pytest.raises(RuntimeError):
                    framework.activate_command(
                        command, now=self.now, blocks_per_sm=2, shared_memory_config=0
                    )
                return
            framework.activate_command(
                command, now=self.now, blocks_per_sm=2, shared_memory_config=0
            )
            self.resident[command.launch.launch_id] = []
        elif kind == "issue" and entry is not None:
            blocks = entry.launch.take_fresh_blocks(1 + b % 3)
            self.resident[entry.launch.launch_id].extend(blocks)
        elif kind in ("complete", "preempt") and entry is not None:
            blocks = self.resident[entry.launch.launch_id]
            if not blocks:
                return
            block = blocks.pop(b % len(blocks))
            if kind == "complete":
                entry.launch.note_completed(1, self.now)
            else:
                framework.push_preempted_block(entry.index, block)
        elif kind == "restore" and entry is not None:
            block = framework.pop_preempted_block(entry.index)
            if block is not None:
                self.resident[entry.launch.launch_id].append(block)
        elif kind == "finish" and entry is not None:
            if not entry.launch.all_blocks_completed:
                with pytest.raises(RuntimeError):
                    framework.finish_kernel(entry.index)
                return
            self.release_running_sms(entry)
            framework.finish_kernel(entry.index)
        elif kind == "drain" and entry is not None:
            # Restore, issue and complete every remaining block, then finish.
            launch = entry.launch
            blocks = self.resident[launch.launch_id]
            while (block := framework.pop_preempted_block(entry.index)) is not None:
                blocks.append(block)
            blocks.extend(launch.take_fresh_blocks(launch.unissued_blocks))
            launch.note_completed(len(blocks), self.now)
            blocks.clear()
            self.release_running_sms(entry)
            framework.finish_kernel(entry.index)
        elif kind == "setup" and entry is not None and sm_entry.is_idle:
            framework.mark_sm_setup(sm_id, entry.index)
            self.setup_for[sm_id] = entry.launch.launch_id
        elif kind == "running" and sm_entry.state is SMState.SETUP:
            index = sm_entry.ksr_index
            if (
                framework.ksr_valid(index)
                and framework.ksr(index).launch.launch_id == self.setup_for[sm_id]
            ):
                framework.mark_sm_running(sm_id)
            else:
                framework.mark_sm_idle(sm_id)
        elif kind == "reserve" and sm_entry.is_running:
            target = self.pick(order, b) if b % 4 else None
            framework.mark_sm_reserved(sm_id, target.index if target else None)
        elif kind == "idle" and not sm_entry.is_idle and sm_entry.state is not SMState.SETUP:
            framework.mark_sm_idle(sm_id)
        elif kind == "tick":
            # Zero steps are common, so activation times tie often.
            self.now += (0.0, 0.0, 0.5, 2.0)[a % 4]
        elif kind == "bad_free":
            with pytest.raises(KeyError):
                framework.ksrt.free(self.pick(self.invalid_indices(), a))
        elif kind == "bad_setup" and sm_entry.is_idle:
            with pytest.raises(KeyError):
                framework.mark_sm_setup(sm_id, self.pick(self.invalid_indices(), b))
            assert sm_entry.is_idle and sm_entry.ksr_index is None


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_incremental_state_matches_table_scans(ops):
    model = _Model()
    check_against_scans(model.framework)
    for kind, a, b in ops:
        model.step(kind, a, b)
        check_against_scans(model.framework)


def _activate(model, *, context_id, priority, blocks=1):
    command = _command(model.next_launch_id, context_id, priority, blocks, model.now)
    model.next_launch_id += 1
    model.framework.buffer_command(command)
    entry = model.framework.activate_command(
        command, now=model.now, blocks_per_sm=2, shared_memory_config=0
    )
    model.resident[command.launch.launch_id] = []
    return entry


def test_ties_on_priority_and_activation_time_order_by_ksr_index():
    model = _Model()
    framework = model.framework
    first = _activate(model, context_id=0, priority=1)
    second = _activate(model, context_id=1, priority=1)
    third = _activate(model, context_id=2, priority=1)
    assert (first.index, second.index, third.index) == (0, 1, 2)
    first.launch.note_completed(1, model.now)
    framework.finish_kernel(first.index)
    # Activated last at the same instant, but given the freed lowest index.
    late = _activate(model, context_id=3, priority=1)
    assert late.index == 0
    assert framework.policy_order == (late, second, third)
    check_against_scans(framework)


def test_recycled_ksr_index_with_a_reserved_sm_naming_the_finished_kernel():
    model = _Model()
    framework = model.framework
    low = _activate(model, context_id=0, priority=0, blocks=1)
    for sm_id in (0, 1):
        framework.mark_sm_setup(sm_id, low.index)
        framework.mark_sm_running(sm_id)
    framework.mark_sm_reserved(0, None)
    low.launch.take_fresh_blocks(1)
    low.launch.note_completed(1, model.now)
    model.release_running_sms(low)
    framework.finish_kernel(low.index)

    recycled = _activate(model, context_id=1, priority=2)
    assert recycled.index == low.index
    reserved = framework.sm_entry(0)
    assert reserved.is_reserved and reserved.ksr_index == recycled.index
    framework.mark_sm_setup(2, recycled.index)
    framework.mark_sm_running(2)
    check_against_scans(framework)
    assert framework.smst.sms_for_ksr(recycled.index) == [0, 2]
    assert recycled.assigned_sms == {2}

    # Freeing the reserved SM leaves the recycled kernel's SMs alone.
    framework.mark_sm_idle(0)
    assert recycled.assigned_sms == {2}
    check_against_scans(framework)


def test_setup_for_an_invalid_ksr_index_leaves_the_sm_idle():
    model = _Model()
    framework = model.framework
    with pytest.raises(KeyError):
        framework.mark_sm_setup(0, 1)
    entry = framework.sm_entry(0)
    assert entry.is_idle and entry.ksr_index is None
    check_against_scans(framework)


def test_invalid_free_and_full_allocate_leave_the_counts_alone():
    model = _Model()
    framework = model.framework
    entries = [_activate(model, context_id=c, priority=c) for c in range(ACTIVE_LIMIT)]
    assert not framework.has_active_capacity
    extra = _command(99, 4, 0, 1, model.now)
    framework.buffer_command(extra)
    with pytest.raises(RuntimeError):
        framework.ksrt.allocate(extra.launch, activation_time_us=model.now)
    assert framework.ksrt.occupancy == ACTIVE_LIMIT
    assert framework.has_pending_commands
    entries[1].launch.note_completed(1, model.now)
    framework.finish_kernel(entries[1].index)
    with pytest.raises(KeyError):
        framework.ksrt.free(entries[1].index)
    assert framework.ksrt.occupancy == ACTIVE_LIMIT - 1
    check_against_scans(framework)
