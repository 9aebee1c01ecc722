"""Tests for the hardware tables of the scheduling framework."""

from __future__ import annotations

import pytest

from repro.core.framework.tables import (
    ActiveQueue,
    KernelStatusRegisterTable,
    PreemptedThreadBlockQueue,
    SMStatusTable,
)
from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.gpu.sm import SMState
from repro.gpu.thread_block import ThreadBlock


def make_launch(launch_id: int = 1, context_id: int = 1) -> KernelLaunch:
    spec = KernelSpec(
        name=f"k{launch_id}", benchmark="b", num_thread_blocks=4, avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=64, shared_memory_per_block=0),
    )
    return KernelLaunch(spec=spec, launch_id=launch_id, context_id=context_id)


class TestKSRT:
    def test_allocate_lowest_free_index(self):
        ksrt = KernelStatusRegisterTable(4)
        first = ksrt.allocate(make_launch(1), activation_time_us=0.0)
        second = ksrt.allocate(make_launch(2), activation_time_us=1.0)
        assert (first.index, second.index) == (0, 1)
        ksrt.free(0)
        third = ksrt.allocate(make_launch(3), activation_time_us=2.0)
        assert third.index == 0

    def test_capacity_enforced(self):
        ksrt = KernelStatusRegisterTable(1)
        ksrt.allocate(make_launch(1), activation_time_us=0.0)
        assert not ksrt.has_free_entry
        with pytest.raises(RuntimeError):
            ksrt.allocate(make_launch(2), activation_time_us=0.0)

    def test_free_invalidates_entry(self):
        ksrt = KernelStatusRegisterTable(2)
        entry = ksrt.allocate(make_launch(1), activation_time_us=0.0)
        freed = ksrt.free(entry.index)
        assert freed is entry
        assert not freed.valid
        assert not ksrt.is_valid(entry.index)
        with pytest.raises(KeyError):
            ksrt.get(entry.index)
        with pytest.raises(KeyError):
            ksrt.free(entry.index)

    def test_index_for_launch(self):
        ksrt = KernelStatusRegisterTable(2)
        entry = ksrt.allocate(make_launch(7), activation_time_us=0.0)
        assert ksrt.index_for_launch(7) == entry.index
        ksrt.free(entry.index)
        assert ksrt.index_for_launch(7) is None

    def test_is_valid_handles_none_and_out_of_range(self):
        ksrt = KernelStatusRegisterTable(2)
        assert not ksrt.is_valid(None)
        assert not ksrt.is_valid(5)
        assert not ksrt.is_valid(0)

    def test_out_of_range_index_is_invalid_for_get_and_free(self):
        ksrt = KernelStatusRegisterTable(3)
        for launch_id in range(1, 4):
            ksrt.allocate(make_launch(launch_id), activation_time_us=0.0)
        for index in (-1, -3, 3, 7):
            assert not ksrt.is_valid(index)
            assert ksrt.find(index) is None
            with pytest.raises(KeyError):
                ksrt.get(index)
            with pytest.raises(KeyError):
                ksrt.free(index)
        assert ksrt.occupancy == 3
        assert [entry.valid for entry in ksrt.valid_entries()] == [True] * 3

    def test_token_count_initialised_from_launch(self):
        ksrt = KernelStatusRegisterTable(2)
        launch = make_launch(1)
        launch.tokens = 6
        entry = ksrt.allocate(launch, activation_time_us=0.0)
        assert entry.token_count == 6

    def test_valid_entries_in_index_order(self):
        ksrt = KernelStatusRegisterTable(4)
        for i in range(1, 4):
            ksrt.allocate(make_launch(i), activation_time_us=0.0)
        ksrt.free(1)
        assert [e.index for e in ksrt.valid_entries()] == [0, 2]
        assert len(ksrt) == 2


class TestSMST:
    def test_all_sms_start_idle(self):
        smst = SMStatusTable(13)
        assert len(smst) == 13
        assert smst.idle_sms() == list(range(13))
        assert smst.running_sms() == []

    def test_state_queries(self):
        smst = SMStatusTable(4)
        smst.set_state(0, SMState.RUNNING)
        smst.entry(0).ksr_index = 2
        smst.set_state(1, SMState.RESERVED)
        smst.entry(1).ksr_index = 2
        assert smst.idle_sms() == [2, 3]
        assert smst.running_sms() == [0]
        assert smst.reserved_sms() == [1]
        assert smst.reserved_count == 1
        assert smst.sms_for_ksr(2) == [0, 1]
        assert smst.sms_for_ksr(2, state=SMState.RUNNING) == [0]

    def test_set_state_keeps_idle_and_reserved_bookkeeping_exact(self):
        smst = SMStatusTable(3)
        smst.set_state(1, SMState.SETUP)
        smst.set_state(1, SMState.RUNNING)
        smst.set_state(1, SMState.RESERVED)
        assert smst.idle_sms() == [0, 2]
        assert smst.reserved_count == 1
        smst.set_state(1, SMState.RESERVED)  # idempotent transitions
        assert smst.reserved_count == 1
        smst.set_state(1, SMState.IDLE)
        assert smst.idle_sms() == [0, 1, 2]
        assert smst.reserved_count == 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SMStatusTable(0)


class TestPTBQ:
    def test_fifo_order(self):
        queue = PreemptedThreadBlockQueue(4)
        blocks = [ThreadBlock(1, i, 1.0) for i in range(3)]
        for block in blocks:
            queue.push(block)
        assert len(queue) == 3
        assert queue.pop() is blocks[0]
        assert queue.pop() is blocks[1]

    def test_overflow_rejected(self):
        queue = PreemptedThreadBlockQueue(2)
        queue.push(ThreadBlock(1, 0, 1.0))
        queue.push(ThreadBlock(1, 1, 1.0))
        with pytest.raises(RuntimeError):
            queue.push(ThreadBlock(1, 2, 1.0))

    def test_pop_empty_returns_none(self):
        assert PreemptedThreadBlockQueue(1).pop() is None

    def test_clear(self):
        queue = PreemptedThreadBlockQueue(4)
        queue.push(ThreadBlock(1, 0, 1.0))
        queue.clear()
        assert queue.empty
        assert queue.total_pushed == 1


class TestActiveQueue:
    def test_push_remove_iterate(self):
        queue = ActiveQueue(3)
        queue.push(2)
        queue.push(0)
        assert list(queue) == [2, 0]
        assert 2 in queue
        queue.remove(2)
        assert list(queue) == [0]
        assert len(queue) == 1

    def test_capacity_enforced(self):
        queue = ActiveQueue(1)
        queue.push(0)
        assert not queue.has_space
        with pytest.raises(RuntimeError):
            queue.push(1)

    def test_duplicate_rejected(self):
        queue = ActiveQueue(2)
        queue.push(0)
        with pytest.raises(ValueError):
            queue.push(0)
