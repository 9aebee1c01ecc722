"""Tests for the command dispatcher, using fake engine sinks."""

from __future__ import annotations

from typing import List

import pytest

from repro.gpu.command_queue import Command, KernelCommand, TransferCommand, TransferDirection
from repro.gpu.dispatcher import CommandDispatcher
from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.gpu.resources import ResourceUsage


class FakeSink:
    """Accepts commands unless told to back-pressure; completes on demand."""

    def __init__(self, accept: bool = True):
        self.accept = accept
        self.received: List[Command] = []
        self._retry = None

    def submit(self, command: Command) -> bool:
        if not self.accept:
            return False
        self.received.append(command)
        return True

    def register_backpressure_callback(self, callback) -> None:
        self._retry = callback

    def drain(self):
        """Signal back-pressure relief (like the execution engine does)."""
        self.accept = True
        if self._retry is not None:
            self._retry()


def make_kernel_command(context_id: int = 1) -> KernelCommand:
    spec = KernelSpec(
        name="k", benchmark="b", num_thread_blocks=1, avg_tb_time_us=1.0,
        usage=ResourceUsage(registers_per_block=32, shared_memory_per_block=0),
    )
    launch = KernelLaunch(spec=spec, launch_id=1, context_id=context_id)
    return KernelCommand(context_id=context_id, stream_id=0, launch=launch)


def make_transfer_command() -> TransferCommand:
    return TransferCommand(
        context_id=1, stream_id=0, size_bytes=4096,
        direction=TransferDirection.HOST_TO_DEVICE,
    )


@pytest.fixture
def setup(simulator):
    execution = FakeSink()
    transfer = FakeSink()
    dispatcher = CommandDispatcher(
        simulator, num_queues=4, execution_sink=execution, transfer_sink=transfer
    )
    return dispatcher, execution, transfer


class TestRouting:
    def test_kernel_commands_go_to_execution_engine(self, setup):
        dispatcher, execution, transfer = setup
        command = make_kernel_command()
        dispatcher.enqueue(0, command)
        assert execution.received == [command]
        assert transfer.received == []

    def test_transfer_commands_go_to_transfer_engine(self, setup):
        dispatcher, execution, transfer = setup
        command = make_transfer_command()
        dispatcher.enqueue(1, command)
        assert transfer.received == [command]
        assert execution.received == []

    def test_invalid_queue_id_rejected(self, setup):
        dispatcher, _, _ = setup
        with pytest.raises(ValueError):
            dispatcher.enqueue(99, make_kernel_command())

    def test_issue_time_recorded(self, setup, simulator):
        dispatcher, execution, _ = setup
        command = make_kernel_command()
        dispatcher.enqueue(0, command)
        assert command.issue_time_us == simulator.now


class TestStreamSemantics:
    def test_queue_blocked_until_command_completes(self, setup):
        dispatcher, execution, _ = setup
        first = make_kernel_command()
        second = make_kernel_command()
        dispatcher.enqueue(0, first)
        dispatcher.enqueue(0, second)
        # The second command waits: its queue is disabled while the first is in flight.
        assert execution.received == [first]
        first.complete(10.0)
        assert execution.received == [first, second]

    def test_independent_queues_issue_concurrently(self, setup):
        dispatcher, execution, _ = setup
        first = make_kernel_command(context_id=1)
        second = make_kernel_command(context_id=2)
        dispatcher.enqueue(0, first)
        dispatcher.enqueue(1, second)
        assert execution.received == [first, second]

    def test_total_pending_excludes_in_flight(self, setup):
        dispatcher, _, _ = setup
        dispatcher.enqueue(0, make_kernel_command())
        dispatcher.enqueue(0, make_kernel_command())
        assert dispatcher.total_pending() == 1


class TestBackpressure:
    def test_rejected_command_stays_at_head_and_retries(self, setup):
        dispatcher, execution, _ = setup
        execution.accept = False
        command = make_kernel_command()
        dispatcher.enqueue(0, command)
        assert execution.received == []
        assert dispatcher.queue(0).depth == 1
        execution.drain()
        assert execution.received == [command]
        assert dispatcher.queue(0).depth == 0


def test_dispatcher_requires_at_least_one_queue(simulator):
    with pytest.raises(ValueError):
        CommandDispatcher(
            simulator, num_queues=0, execution_sink=FakeSink(), transfer_sink=FakeSink()
        )
