"""Tests for GPU commands and hardware command queues."""

from __future__ import annotations

import pytest

from repro.gpu.command_queue import (
    HardwareQueue,
    KernelCommand,
    TransferCommand,
    TransferDirection,
)
from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.gpu.resources import ResourceUsage


def make_kernel_command(context_id: int = 1) -> KernelCommand:
    spec = KernelSpec(
        name="k",
        benchmark="b",
        num_thread_blocks=4,
        avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=32, shared_memory_per_block=0),
    )
    launch = KernelLaunch(spec=spec, launch_id=1, context_id=context_id)
    return KernelCommand(context_id=context_id, stream_id=0, launch=launch)


class TestCommands:
    def test_kernel_command_targets_execution_engine(self):
        assert make_kernel_command().engine == "execution"

    def test_transfer_command_targets_transfer_engine(self):
        command = TransferCommand(
            context_id=1, stream_id=0, size_bytes=1024,
            direction=TransferDirection.DEVICE_TO_HOST,
        )
        assert command.engine == "transfer"

    def test_kernel_command_requires_launch(self):
        with pytest.raises(ValueError):
            KernelCommand(context_id=1, stream_id=0)

    def test_negative_transfer_size_rejected(self):
        with pytest.raises(ValueError):
            TransferCommand(context_id=1, stream_id=0, size_bytes=-1)

    def test_command_ids_are_unique_and_increasing(self):
        first = make_kernel_command()
        second = make_kernel_command()
        assert second.command_id > first.command_id

    def test_completion_notifies_all_listeners_once(self):
        command = make_kernel_command()
        seen = []
        command.subscribe_completion(lambda now: seen.append(("a", now)))
        command.subscribe_completion(lambda now: seen.append(("b", now)))
        command.complete(12.0)
        assert seen == [("a", 12.0), ("b", 12.0)]
        assert command.is_complete
        assert command.completion_time_us == 12.0

    def test_double_completion_rejected(self):
        command = make_kernel_command()
        command.complete(1.0)
        with pytest.raises(RuntimeError):
            command.complete(2.0)

    def test_subscribe_after_completion_rejected(self):
        command = make_kernel_command()
        command.complete(1.0)
        with pytest.raises(RuntimeError):
            command.subscribe_completion(lambda now: None)


class TestHardwareQueue:
    def test_fifo_order(self):
        queue = HardwareQueue(0)
        first = make_kernel_command()
        second = make_kernel_command()
        queue.push(first, now=1.0)
        queue.push(second, now=2.0)
        assert queue.depth == 2
        assert queue.head() is first
        assert queue.pop() is first
        assert queue.pop() is second
        assert queue.empty

    def test_push_records_enqueue_time(self):
        queue = HardwareQueue(0)
        command = make_kernel_command()
        queue.push(command, now=3.5)
        assert command.enqueue_time_us == 3.5

    def test_enabled_tracks_in_flight_command(self):
        queue = HardwareQueue(0)
        command = make_kernel_command()
        queue.push(command, now=0.0)
        assert queue.enabled
        queue.pop()
        queue.in_flight = command
        assert not queue.enabled
        queue.in_flight = None
        assert queue.enabled

    def test_ready_means_enabled_and_not_empty(self):
        queue = HardwareQueue(0)
        first, second = make_kernel_command(), make_kernel_command()

        def check():
            assert queue.ready is (queue.enabled and not queue.empty)

        check()
        queue.push(first, now=0.0)
        check()
        queue.push(second, now=0.0)
        queue.pop()
        queue.in_flight = first
        check()
        assert not queue.ready
        queue.in_flight = None
        check()
        assert queue.ready
        queue.pop()
        check()
        queue.in_flight = second
        queue.push(make_kernel_command(), now=1.0)
        check()
        assert not queue.ready

    def test_head_of_empty_queue_is_none(self):
        assert HardwareQueue(0).head() is None

    def test_total_enqueued_counts_everything(self):
        queue = HardwareQueue(0)
        for _ in range(3):
            queue.push(make_kernel_command(), now=0.0)
            queue.pop()
        assert queue.total_enqueued == 3
        assert queue.depth == 0
