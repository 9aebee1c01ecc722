"""Host processes: trace replay state machines.

A :class:`HostProcess` owns one GPU context and replays an
:class:`~repro.trace.schema.ApplicationTrace`: CPU phases execute on the host
CPU, kernel launches and memory copies become GPU commands issued through the
device driver, and synchronisation operations block the process until the
relevant commands complete.

For multiprogrammed workloads the process replays its trace repeatedly
("replaying them once they complete until all benchmarks have been executed
at least 3 times", paper Sec. 4.1); every completed replay is recorded as an
:class:`IterationRecord`, and only completed iterations enter the metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.gpu.command_queue import Command
from repro.gpu.context import GPUContext
from repro.host.cpu import HostCPU
from repro.host.driver import DeviceDriver
from repro.sim.engine import Simulator
from repro.trace.schema import (
    ApplicationTrace,
    CpuPhaseOp,
    DeviceSyncOp,
    FreeOp,
    KernelLaunchOp,
    MallocOp,
    MemcpyOp,
    StreamSyncOp,
)


@dataclass(frozen=True)
class IterationRecord:
    """Timing of one completed replay of the application trace."""

    index: int
    start_time_us: float
    end_time_us: float

    @property
    def duration_us(self) -> float:
        """Turnaround time of the iteration."""
        return self.end_time_us - self.start_time_us


class HostProcess:
    """One application process in the (multiprogrammed) workload."""

    def __init__(
        self,
        name: str,
        trace: ApplicationTrace,
        *,
        simulator: Simulator,
        driver: DeviceDriver,
        cpu: HostCPU,
        priority: int = 0,
        tokens: int = 0,
        start_delay_us: float = 0.0,
        max_iterations: Optional[int] = None,
        on_iteration_complete: Optional[Callable[["HostProcess", IterationRecord], None]] = None,
    ):
        if start_delay_us < 0:
            raise ValueError("start_delay_us must be non-negative")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.name = name
        self.trace = trace
        self.priority = priority
        self.tokens = tokens
        self._sim = simulator
        self._driver = driver
        self._cpu = cpu
        self._start_delay = start_delay_us
        self._max_iterations = max_iterations
        self._on_iteration_complete = on_iteration_complete

        self.context: Optional[GPUContext] = None
        self.iterations: List[IterationRecord] = []

        self._started = False
        self._stopped = False
        self._op_index = 0
        self._iteration_start: Optional[float] = None
        self._allocations: Dict[str, int] = {}
        self._anonymous_allocations: List[int] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create the process's GPU context and begin replaying the trace."""
        if self._started:
            raise RuntimeError(f"process {self.name} was already started")
        self._started = True
        self.context = self._driver.create_context(
            self.name, priority=self.priority, tokens=self.tokens
        )
        for kernel_name in self.trace.kernels:
            self.context.register_kernel(kernel_name)
        self._sim.schedule(self._start_delay, self._begin_iteration, label=f"{self.name}.start")

    def stop(self) -> None:
        """Stop replaying after the current operation (used at teardown)."""
        self._stopped = True

    @property
    def completed_iterations(self) -> int:
        """Number of fully completed replays of the trace."""
        return len(self.iterations)

    @property
    def is_running(self) -> bool:
        """Whether the process is still replaying its trace."""
        return self._started and not self._stopped

    def mean_iteration_time_us(self) -> float:
        """Average turnaround time over completed iterations."""
        if not self.iterations:
            raise ValueError(f"process {self.name} completed no iterations")
        return sum(record.duration_us for record in self.iterations) / len(self.iterations)

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def _begin_iteration(self) -> None:
        if self._stopped:
            return
        self._iteration_start = self._sim.now
        self._op_index = 0
        self._next_op()

    def _advance(self, latency_us: float = 0.0) -> None:
        """Schedule the next operation after ``latency_us``."""
        self._op_index += 1
        self._sim.schedule(latency_us, self._next_op, label=f"{self.name}.op{self._op_index}")

    def _next_op(self) -> None:
        if self._stopped:
            return
        if self._op_index >= len(self.trace.operations):
            self._finish_iteration()
            return
        op = self.trace.operations[self._op_index]
        issue_latency = self._driver.command_issue_latency_us
        assert self.context is not None

        if isinstance(op, CpuPhaseOp):
            self._cpu.run_phase(
                op.duration_us,
                lambda: self._advance(0.0),
                label=f"{self.name}.cpu",
            )
            return
        if isinstance(op, MallocOp):
            allocation = self._driver.malloc(self.context.context_id, op.size_bytes)
            if op.label:
                self._allocations[op.label] = allocation.virtual_address
            else:
                self._anonymous_allocations.append(allocation.virtual_address)
            self._advance(issue_latency)
            return
        if isinstance(op, FreeOp):
            address = self._allocations.pop(op.label, None)
            if address is not None:
                self._driver.free(self.context.context_id, address)
            self._advance(issue_latency)
            return
        if isinstance(op, MemcpyOp):
            command = self._driver.memcpy(
                self.context,
                op.size_bytes,
                op.direction,
                stream_id=op.stream,
                priority=self.priority,
            )
            if op.synchronous:
                command.subscribe_completion(lambda now: self._advance(0.0))
            else:
                self._advance(issue_latency)
            return
        if isinstance(op, KernelLaunchOp):
            spec = self.trace.kernels[op.kernel_name]
            self._driver.launch_kernel(
                self.context, spec, stream_id=op.stream, priority=self.priority
            )
            self._advance(issue_latency)
            return
        if isinstance(op, StreamSyncOp):
            stream = self._driver.stream(self.context.context_id, op.stream)
            if stream.when_idle(lambda now: self._advance(0.0)):
                self._advance(0.0)
            return
        if isinstance(op, DeviceSyncOp):
            self._device_synchronize()
            return
        raise TypeError(f"unknown trace operation: {op!r}")  # pragma: no cover

    def _device_synchronize(self) -> None:
        """Block until every outstanding command of the process completes."""
        assert self.context is not None
        streams = self._driver.streams_of(self.context.context_id)
        pending = [s for s in streams if not s.idle]
        if not pending:
            self._advance(0.0)
            return
        remaining = {"count": len(pending)}

        def _one_done(now: float) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                self._advance(0.0)

        for stream in pending:
            stream.when_idle(_one_done)

    # ------------------------------------------------------------------
    # Iteration bookkeeping
    # ------------------------------------------------------------------
    def _finish_iteration(self) -> None:
        assert self._iteration_start is not None
        record = IterationRecord(
            index=len(self.iterations),
            start_time_us=self._iteration_start,
            end_time_us=self._sim.now,
        )
        self.iterations.append(record)
        self._release_iteration_memory()
        if self._on_iteration_complete is not None:
            self._on_iteration_complete(self, record)
        if self._stopped:
            return
        if self._max_iterations is not None and len(self.iterations) >= self._max_iterations:
            self._stopped = True
            return
        # Replay the trace again (paper Sec. 4.1 replay methodology).
        self._sim.schedule(0.0, self._begin_iteration, label=f"{self.name}.replay")

    def _release_iteration_memory(self) -> None:
        """Free the device allocations made during the finished iteration.

        A real application exits at the end of its run and the driver frees
        its memory; replaying without releasing would leak device memory
        across iterations.
        """
        assert self.context is not None
        for address in self._allocations.values():
            self._driver.free(self.context.context_id, address)
        for address in self._anonymous_allocations:
            self._driver.free(self.context.context_id, address)
        self._allocations.clear()
        self._anonymous_allocations.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HostProcess({self.name}, priority={self.priority}, "
            f"iterations={self.completed_iterations})"
        )
