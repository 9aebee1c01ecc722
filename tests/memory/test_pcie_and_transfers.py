"""Tests for the PCIe bus model and the data-transfer (DMA) engine."""

from __future__ import annotations

import pytest

from repro.gpu.command_queue import TransferCommand, TransferDirection
from repro.gpu.config import PCIeConfig
from repro.memory.pcie import PCIeBus
from repro.memory.transfer_engine import DataTransferEngine, TransferSchedulingPolicy


def make_transfer(size=4096, direction=TransferDirection.HOST_TO_DEVICE, priority=0,
                  context_id=1) -> TransferCommand:
    return TransferCommand(
        context_id=context_id, stream_id=0, size_bytes=size, direction=direction,
        priority=priority,
    )


@pytest.fixture
def pcie(simulator) -> PCIeBus:
    return PCIeBus(PCIeConfig(), simulator)


class TestPCIeBus:
    def test_transfer_takes_setup_plus_wire_time(self, pcie, simulator):
        done = []
        size = 1 << 20
        expected = pcie.transfer_latency_us(size)
        pcie.start_transfer(size, TransferDirection.HOST_TO_DEVICE,
                            lambda: done.append(simulator.now))
        simulator.run()
        assert done == [pytest.approx(expected)]
        assert expected > PCIeConfig().transfer_setup_latency_us

    def test_direction_busy_while_transferring(self, pcie, simulator):
        pcie.start_transfer(4096, TransferDirection.HOST_TO_DEVICE, lambda: None)
        assert pcie.is_busy(TransferDirection.HOST_TO_DEVICE)
        assert not pcie.is_busy(TransferDirection.DEVICE_TO_HOST)
        with pytest.raises(RuntimeError):
            pcie.start_transfer(4096, TransferDirection.HOST_TO_DEVICE, lambda: None)
        simulator.run()
        assert not pcie.is_busy(TransferDirection.HOST_TO_DEVICE)

    def test_directions_transfer_concurrently(self, pcie, simulator):
        # Full duplex: a download does not wait for an upload in flight.
        done = {}
        size = 1 << 20
        for direction in TransferDirection:
            pcie.start_transfer(size, direction,
                                lambda d=direction: done.update({d: simulator.now}))
        simulator.run()
        assert done == {d: pytest.approx(pcie.transfer_latency_us(size))
                        for d in TransferDirection}


class TestTransferEngine:
    def test_fcfs_order(self, simulator, pcie):
        engine = DataTransferEngine(simulator, pcie, policy=TransferSchedulingPolicy.FCFS)
        first = make_transfer(size=1 << 20)
        second = make_transfer(size=4096)
        engine.submit(first)
        engine.submit(second)
        simulator.run()
        assert first.completion_time_us < second.completion_time_us

    def test_priority_policy_reorders_waiting_transfers(self, simulator, pcie):
        engine = DataTransferEngine(simulator, pcie, policy=TransferSchedulingPolicy.PRIORITY)
        running = make_transfer(size=1 << 22)
        low = make_transfer(size=4096, priority=0, context_id=2)
        high = make_transfer(size=4096, priority=9, context_id=3)
        engine.submit(running)
        engine.submit(low)
        engine.submit(high)
        simulator.run()
        assert running.completion_time_us < high.completion_time_us < low.completion_time_us

    def test_opposite_directions_overlap(self, simulator, pcie):
        engine = DataTransferEngine(simulator, pcie)
        h2d = make_transfer(size=1 << 20, direction=TransferDirection.HOST_TO_DEVICE)
        d2h = make_transfer(size=1 << 20, direction=TransferDirection.DEVICE_TO_HOST)
        engine.submit(h2d)
        engine.submit(d2h)
        simulator.run()
        # Full duplex: both finish at (approximately) the single-transfer time.
        assert h2d.completion_time_us == pytest.approx(d2h.completion_time_us, rel=0.01)

    def test_rejects_non_transfer_commands(self, simulator, pcie):
        engine = DataTransferEngine(simulator, pcie)
        with pytest.raises(TypeError):
            engine.submit(object())  # type: ignore[arg-type]

    def test_pending_counters_and_completions(self, simulator, pcie):
        engine = DataTransferEngine(simulator, pcie)
        transfers = [make_transfer(), make_transfer()]
        for transfer in transfers:
            engine.submit(transfer)
        assert engine.busy
        simulator.run()
        assert engine.pending_transfers == 0
        assert all(transfer.completion_time_us is not None for transfer in transfers)
