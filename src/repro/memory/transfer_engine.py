"""The data-transfer (DMA) engine (paper Fig. 1, block 5).

The transfer engine receives transfer commands from the command dispatcher
and executes them, one at a time per direction, over the PCIe bus.  Like the
execution engine, it is scheduled by a policy; the paper uses non-preemptive
priority queues (NPQ) for the priority experiments and FCFS for the DSS
experiments.  Transfers are never preempted.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.gpu.command_queue import Command, TransferCommand, TransferDirection
from repro.memory.pcie import PCIeBus
from repro.registry import register_transfer_policy
from repro.sim.engine import Simulator


class TransferSchedulingPolicy(enum.Enum):
    """Scheduling policy of the data-transfer engine."""

    FCFS = "fcfs"
    #: Non-preemptive priority: the highest-priority waiting transfer goes next.
    PRIORITY = "npq"


# Register the enum members so scheme specs and the CLI resolve transfer
# policies through the same registry as policies/mechanisms.
register_transfer_policy(
    "fcfs", description="Transfers serviced strictly in arrival order"
)(lambda: TransferSchedulingPolicy.FCFS)
register_transfer_policy(
    "npq",
    "priority",
    description="Highest-priority waiting transfer goes next (non-preemptive)",
)(lambda: TransferSchedulingPolicy.PRIORITY)


class DataTransferEngine:
    """Executes DMA transfer commands over the PCIe bus."""

    def __init__(
        self,
        simulator: Simulator,
        pcie: PCIeBus,
        *,
        policy: TransferSchedulingPolicy = TransferSchedulingPolicy.FCFS,
    ):
        """Create the engine.

        ``policy`` orders the waiting transfers.  An H2D and a D2H transfer
        may be in flight at the same time: full-duplex PCIe with two DMA
        engines, like the paper's K20c.
        """
        self._sim = simulator
        self._pcie = pcie
        self.policy = policy
        self._waiting: List[TransferCommand] = []
        self._in_flight: Dict[TransferDirection, Optional[TransferCommand]] = {
            TransferDirection.HOST_TO_DEVICE: None,
            TransferDirection.DEVICE_TO_HOST: None,
        }
        self._backpressure_callbacks: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # CommandSink interface
    # ------------------------------------------------------------------
    def submit(self, command: Command) -> bool:
        """Accept a transfer command (the engine's queue is unbounded)."""
        if not isinstance(command, TransferCommand):
            raise TypeError("the data-transfer engine only accepts transfer commands")
        self._waiting.append(command)
        self._dispatch()
        return True

    def register_backpressure_callback(self, callback: Callable[[], None]) -> None:
        """Part of the CommandSink protocol; the engine never back-pressures."""
        self._backpressure_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _select_next(self) -> Optional[TransferCommand]:
        """Pick the next waiting transfer according to the engine policy."""
        candidates = self._waiting
        if not candidates:
            return None
        available = [
            cmd for cmd in candidates if self._in_flight[cmd.direction] is None
        ]
        if not available:
            return None
        if self.policy is TransferSchedulingPolicy.PRIORITY:
            available.sort(
                key=lambda c: (
                    -c.priority,
                    c.enqueue_time_us if c.enqueue_time_us is not None else 0.0,
                    c.command_id,
                )
            )
        else:
            available.sort(
                key=lambda c: (
                    c.enqueue_time_us if c.enqueue_time_us is not None else 0.0,
                    c.command_id,
                )
            )
        return available[0]

    def _dispatch(self) -> None:
        """Start as many waiting transfers as the bus allows."""
        while True:
            command = self._select_next()
            if command is None:
                return
            self._waiting.remove(command)
            self._in_flight[command.direction] = command
            self._pcie.start_transfer(
                command.size_bytes,
                command.direction,
                lambda cmd=command: self._finish(cmd),
                label=f"dma.{command.direction.value}.cmd{command.command_id}",
            )

    def _finish(self, command: TransferCommand) -> None:
        """A transfer finished on the bus: notify listeners and dispatch."""
        self._in_flight[command.direction] = None
        command.complete(self._sim.now)
        self._dispatch()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def pending_transfers(self) -> int:
        """Number of transfers waiting to start."""
        return len(self._waiting)

    @property
    def busy(self) -> bool:
        """Whether any transfer is currently in flight."""
        return any(cmd is not None for cmd in self._in_flight.values())
