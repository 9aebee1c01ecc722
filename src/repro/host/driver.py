"""The GPU device driver.

The device driver performs the bookkeeping the OS performs for CPUs (paper
Sec. 2.1): it creates a GPU context per process, manages GPU memory
allocations, maps software streams onto hardware command queues, and builds
the kernel-launch and data-transfer commands the process's API calls turn
into.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.gpu.command_queue import KernelCommand, TransferCommand, TransferDirection
from repro.gpu.config import SystemConfig
from repro.gpu.context import ContextTable, GPUContext
from repro.gpu.dispatcher import CommandDispatcher
from repro.gpu.kernel import KernelLaunch, KernelSpec
from repro.host.stream import Stream
from repro.memory.allocator import GPUMemoryAllocator
from repro.memory.address_space import Allocation
from repro.sim.engine import Simulator
from repro.utils.determinism import DeterministicJitter


class DeviceDriver:
    """Creates contexts, allocates memory and issues commands to the GPU."""

    def __init__(
        self,
        simulator: Simulator,
        config: SystemConfig,
        *,
        context_table: ContextTable,
        allocator: GPUMemoryAllocator,
        dispatcher: CommandDispatcher,
        launch_base: int = 0,
    ):
        self._sim = simulator
        self._config = config
        self._context_table = context_table
        self._allocator = allocator
        self._dispatcher = dispatcher
        #: Launches are numbered from ``launch_base + 1``: a resumed segment
        #: continues its parent run's ids, which key per-launch jitter.
        self._launch_ids = itertools.count(launch_base + 1)
        self._next_hw_queue = 0
        #: (context_id, stream_id) -> Stream
        self._streams: Dict[Tuple[int, int], Stream] = {}
        self._jitter = DeterministicJitter(config.seed, config.tb_time_cv)

    # ------------------------------------------------------------------
    # Context and stream management
    # ------------------------------------------------------------------
    def create_context(self, process_name: str, *, priority: int = 0, tokens: int = 0) -> GPUContext:
        """Create the GPU context of a process (first CUDA call)."""
        context = self._context_table.create(process_name, priority=priority, tokens=tokens)
        # Stream 0 (the default stream) always exists.
        self._create_stream(context.context_id, 0)
        return context

    def destroy_context(self, context_id: int) -> None:
        """Tear down a process's context and free its memory."""
        self._allocator.destroy_address_space(context_id)
        self._context_table.destroy(context_id)
        for key in [key for key in self._streams if key[0] == context_id]:
            del self._streams[key]

    def _create_stream(self, context_id: int, stream_id: int) -> Stream:
        hw_queue = self._next_hw_queue % self._dispatcher.num_queues
        self._next_hw_queue += 1
        stream = Stream(stream_id, hw_queue)
        self._streams[(context_id, stream_id)] = stream
        return stream

    def stream(self, context_id: int, stream_id: int) -> Stream:
        """The stream object for ``(context, stream_id)``, creating it lazily."""
        key = (context_id, stream_id)
        if key not in self._streams:
            return self._create_stream(context_id, stream_id)
        return self._streams[key]

    def streams_of(self, context_id: int) -> list[Stream]:
        """All streams created by a context."""
        return [s for (ctx, _), s in self._streams.items() if ctx == context_id]

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def malloc(self, context_id: int, size_bytes: int) -> Allocation:
        """Allocate device memory on behalf of a process."""
        return self._allocator.malloc(context_id, size_bytes)

    def free(self, context_id: int, virtual_address: int) -> None:
        """Free device memory on behalf of a process."""
        self._allocator.free(context_id, virtual_address)

    # ------------------------------------------------------------------
    # Command construction and issue
    # ------------------------------------------------------------------
    def launch_kernel(
        self,
        context: GPUContext,
        spec: KernelSpec,
        *,
        stream_id: int = 0,
        priority: Optional[int] = None,
    ) -> KernelCommand:
        """Build a kernel launch and enqueue it on the stream's HW queue."""
        stream = self.stream(context.context_id, stream_id)
        launch = KernelLaunch(
            spec=spec,
            launch_id=next(self._launch_ids),
            context_id=context.context_id,
            process_name=context.process_name,
            stream_id=stream_id,
            priority=priority if priority is not None else context.priority,
            tokens=context.tokens,
            jitter=self._jitter if self._config.tb_time_cv > 0 else None,
        )
        launch.issue_time_us = self._sim.now
        command = KernelCommand(
            context_id=context.context_id,
            stream_id=stream_id,
            process_name=context.process_name,
            priority=launch.priority,
            launch=launch,
        )
        stream.track(command)
        self._dispatcher.enqueue(stream.hw_queue_id, command)
        return command

    def memcpy(
        self,
        context: GPUContext,
        size_bytes: int,
        direction: TransferDirection,
        *,
        stream_id: int = 0,
        priority: Optional[int] = None,
    ) -> TransferCommand:
        """Build a DMA transfer and enqueue it on the stream's HW queue."""
        stream = self.stream(context.context_id, stream_id)
        command = TransferCommand(
            context_id=context.context_id,
            stream_id=stream_id,
            process_name=context.process_name,
            priority=priority if priority is not None else context.priority,
            size_bytes=size_bytes,
            direction=direction,
        )
        stream.track(command)
        self._dispatcher.enqueue(stream.hw_queue_id, command)
        return command

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def command_issue_latency_us(self) -> float:
        """Host-side latency of issuing one command to the GPU."""
        return self._config.cpu.command_issue_latency_us
