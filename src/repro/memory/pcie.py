"""The PCI Express interconnect model (paper Table 2).

The bus is modelled as a shared, full-duplex channel: at most one DMA
transfer per direction occupies the bus at a time (the data-transfer engine
serialises transfers anyway), each transfer pays a fixed setup latency and a
burst-granular wire time at the configured bandwidth.
"""

from __future__ import annotations

from typing import Callable

from repro.gpu.command_queue import TransferDirection
from repro.gpu.config import PCIeConfig
from repro.sim.engine import Simulator


class PCIeBus:
    """Shared PCIe link between host memory and GPU memory."""

    def __init__(self, config: PCIeConfig, simulator: Simulator):
        self._config = config
        self._sim = simulator
        self._busy: dict[TransferDirection, bool] = {
            TransferDirection.HOST_TO_DEVICE: False,
            TransferDirection.DEVICE_TO_HOST: False,
        }

    @property
    def config(self) -> PCIeConfig:
        """The PCIe configuration."""
        return self._config

    def transfer_latency_us(self, size_bytes: int) -> float:
        """End-to-end latency of one transfer (setup + wire time)."""
        return self._config.transfer_setup_latency_us + self._config.transfer_time_us(size_bytes)

    def is_busy(self, direction: TransferDirection) -> bool:
        """Whether a transfer currently occupies the given direction."""
        return self._busy[direction]

    def start_transfer(
        self,
        size_bytes: int,
        direction: TransferDirection,
        on_complete: Callable[[], None],
        *,
        label: str = "",
    ) -> float:
        """Occupy the bus for one transfer and schedule its completion.

        Returns the transfer latency.  The caller (the data-transfer engine)
        is responsible for not starting two transfers in the same direction
        at once; doing so raises ``RuntimeError``.
        """
        if self._busy[direction]:
            raise RuntimeError(f"PCIe bus is already busy in direction {direction.value}")
        latency = self.transfer_latency_us(size_bytes)
        self._busy[direction] = True

        def _finish() -> None:
            self._busy[direction] = False
            on_complete()

        self._sim.schedule(latency, _finish, label=label or f"pcie.{direction.value}")
        return latency
