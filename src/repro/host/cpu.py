"""The host CPU model.

The paper's simulator performs coarse-grained modelling of the CPU: each
benchmark's CPU phases are replayed from timestamps.  The simulated Intel
i7-930 has 4 cores x 2-way SMT = 8 hardware threads, and the evaluated
workloads never exceed 8 processes, so CPU phases of different processes do
not contend in the paper's setup.  :class:`HostCPU` still models a bounded
pool of hardware threads so that over-subscribed configurations (more
processes than hardware threads) queue CPU phases instead of executing an
unbounded number of them in parallel.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.gpu.config import CPUConfig
from repro.sim.engine import Simulator


class HostCPU:
    """A pool of hardware threads executing timed CPU phases."""

    def __init__(self, config: CPUConfig, simulator: Simulator):
        self._config = config
        self._sim = simulator
        self._busy_threads = 0
        self._waiting: Deque[Tuple[float, Callable[[], None], str]] = deque()
        #: Optional instrumentation sink (see :mod:`repro.sim.observers`),
        #: notified of phase start/finish; it must never mutate state.
        self.observer: Optional[object] = None

    @property
    def hardware_threads(self) -> int:
        """Number of phases that can execute concurrently."""
        return self._config.hardware_threads

    @property
    def queued_phases(self) -> int:
        """CPU phases waiting for a free hardware thread."""
        return len(self._waiting)

    def run_phase(self, duration_us: float, on_complete: Callable[[], None], *, label: str = "") -> None:
        """Execute a CPU phase of ``duration_us``; call ``on_complete`` after.

        If all hardware threads are busy, the phase waits in FIFO order.
        Zero-length phases complete via the event queue (never re-entrantly).
        """
        if duration_us < 0:
            raise ValueError("CPU phase duration must be non-negative")
        if self._busy_threads >= self.hardware_threads:
            self._waiting.append((duration_us, on_complete, label))
            return
        self._start(duration_us, on_complete, label)

    def _start(self, duration_us: float, on_complete: Callable[[], None], label: str) -> None:
        self._busy_threads += 1
        if self.observer is not None:
            self.observer.on_cpu_phase_started(duration_us, label)

        def _finish() -> None:
            self._busy_threads -= 1
            if self.observer is not None:
                self.observer.on_cpu_phase_finished(label)
            try:
                on_complete()
            finally:
                self._drain_queue()

        self._sim.schedule(duration_us, _finish, label=label or "cpu.phase")

    def _drain_queue(self) -> None:
        while self._waiting and self._busy_threads < self.hardware_threads:
            duration, callback, label = self._waiting.popleft()
            self._start(duration, callback, label)
