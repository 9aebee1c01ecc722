"""The command dispatcher (paper Fig. 1, block 6).

The dispatcher inspects the heads of the hardware command queues and issues
commands to the corresponding engine: kernel launches to the execution
engine, data transfers to the data-transfer engine.  After issuing a command
from a queue the dispatcher stops inspecting that queue; when the engine
notifies completion the queue is re-enabled.  Commands from different queues
that target different engines therefore execute concurrently, while commands
within one queue (one software stream) are serialised.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

from repro.gpu.command_queue import Command, HardwareQueue, KernelCommand, TransferCommand
from repro.sim.engine import Simulator


class CommandSink(Protocol):
    """An engine that accepts commands from the dispatcher.

    ``submit`` returns ``True`` if the command was accepted.  If it returns
    ``False`` (e.g. the execution engine's per-context command buffer is
    full), the dispatcher leaves the command at the head of its queue and
    retries when the engine calls the registered retry callback.
    """

    def submit(self, command: Command) -> bool:
        ...  # pragma: no cover - protocol definition

    def register_backpressure_callback(self, callback: Callable[[], None]) -> None:
        ...  # pragma: no cover - protocol definition


class CommandDispatcher:
    """Routes commands from hardware queues to the GPU engines."""

    def __init__(
        self,
        simulator: Simulator,
        *,
        num_queues: int,
        execution_sink: CommandSink,
        transfer_sink: CommandSink,
    ):
        if num_queues < 1:
            raise ValueError("the dispatcher needs at least one hardware queue")
        self._sim = simulator
        self._queues: List[HardwareQueue] = [HardwareQueue(i) for i in range(num_queues)]
        self._sinks: Dict[str, CommandSink] = {
            "execution": execution_sink,
            "transfer": transfer_sink,
        }
        for sink in self._sinks.values():
            sink.register_backpressure_callback(self.dispatch)
        #: queue_id for every in-flight command id (to re-enable on completion).
        self._inflight_queue: Dict[int, int] = {}
        #: Re-entrancy guard: submitting a command may synchronously free an
        #: engine buffer, whose back-pressure callback calls dispatch() again.
        self._dispatching = False
        self._redispatch_requested = False
        #: Optional instrumentation sink (see :mod:`repro.validation`),
        #: notified of enqueue/issue/completion; must never mutate state.
        self.observer: Optional[object] = None

    # ------------------------------------------------------------------
    # Queue access
    # ------------------------------------------------------------------
    @property
    def num_queues(self) -> int:
        """Number of hardware command queues."""
        return len(self._queues)

    def queue(self, queue_id: int) -> HardwareQueue:
        """Return the hardware queue with the given id."""
        return self._queues[queue_id]

    def total_pending(self) -> int:
        """Commands waiting in all queues (excluding in-flight ones)."""
        return sum(q.depth for q in self._queues)

    # ------------------------------------------------------------------
    # Host-facing API (used by the device driver)
    # ------------------------------------------------------------------
    def enqueue(self, queue_id: int, command: Command) -> None:
        """Push ``command`` onto hardware queue ``queue_id`` and dispatch."""
        if not 0 <= queue_id < len(self._queues):
            raise ValueError(f"invalid hardware queue id {queue_id}")
        queue = self._queues[queue_id]
        queue.push(command, self._sim.now)
        if self.observer is not None:
            self.observer.on_command_enqueued(queue_id, command)
        self.dispatch()

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def dispatch(self) -> None:
        """Inspect every enabled queue and issue what the engines accept.

        The loop keeps sweeping the queues until it makes no further
        progress, which lets a single call drain multiple queues (e.g. when
        an engine just freed space for several contexts at once).  Calls made
        re-entrantly (an engine's back-pressure callback firing while a
        submission is in progress) only request another sweep instead of
        recursing.
        """
        if self._dispatching:
            self._redispatch_requested = True
            return
        self._dispatching = True
        try:
            progress = True
            while progress or self._redispatch_requested:
                self._redispatch_requested = False
                progress = False
                for queue in self._queues:
                    if not queue.ready:
                        continue
                    command = queue.head()
                    sink = self._sinks[command.engine]
                    if not sink.submit(command):
                        # Engine back-pressure: leave the command at the head.
                        continue
                    queue.pop()
                    queue.in_flight = command
                    command.issue_time_us = self._sim.now
                    self._inflight_queue[command.command_id] = queue.queue_id
                    command.subscribe_completion(
                        lambda now, cid=command.command_id: self._on_command_complete(cid)
                    )
                    if self.observer is not None:
                        self.observer.on_command_issued(queue.queue_id, command)
                    progress = True
        finally:
            self._dispatching = False

    def _on_command_complete(self, command_id: int) -> None:
        """Re-enable the queue whose in-flight command just completed."""
        queue_id = self._inflight_queue.pop(command_id, None)
        if queue_id is None:  # pragma: no cover - defensive
            return
        queue = self._queues[queue_id]
        queue.in_flight = None
        if self.observer is not None:
            self.observer.on_command_completed(queue_id, command_id)
        self.dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        blocked = sum(1 for q in self._queues if not q.enabled)
        return (
            f"CommandDispatcher(queues={len(self._queues)}, blocked={blocked}, "
            f"pending={self.total_pending()})"
        )
