"""GPU commands and hardware command queues (paper Fig. 1, blocks 6-7).

The host CPU issues *commands* (kernel launches, data transfers) to the GPU
through a set of hardware command queues (NVIDIA Hyper-Q).  The device driver
maps software streams onto hardware queues; commands within one queue execute
sequentially (stream semantics), commands in different queues may execute
concurrently if they target different engines.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro.gpu.kernel import KernelLaunch

_COMMAND_IDS = itertools.count(1)


class TransferDirection(enum.Enum):
    """Direction of a DMA transfer across the PCIe bus."""

    HOST_TO_DEVICE = "h2d"
    DEVICE_TO_HOST = "d2h"


@dataclass
class Command:
    """Base class for GPU commands.

    A command belongs to one GPU context and one software stream.  Completion
    listeners are invoked exactly once, when the engine executing the command
    reports completion.
    """

    context_id: int
    stream_id: int
    process_name: str = ""
    priority: int = 0
    enqueue_time_us: Optional[float] = None
    command_id: int = field(default_factory=lambda: next(_COMMAND_IDS))
    issue_time_us: Optional[float] = None
    completion_time_us: Optional[float] = None
    _listeners: List[Callable[[float], None]] = field(default_factory=list)

    @property
    def engine(self) -> str:
        """Name of the engine the command targets ('execution' or 'transfer')."""
        raise NotImplementedError

    @property
    def is_complete(self) -> bool:
        """Whether the command has completed."""
        return self.completion_time_us is not None

    def subscribe_completion(self, listener: Callable[[float], None]) -> None:
        """Register ``listener(now)`` to fire when the command completes."""
        if self.is_complete:
            raise RuntimeError("cannot subscribe to an already-completed command")
        self._listeners.append(listener)

    def complete(self, now: float) -> None:
        """Mark the command complete and notify listeners (exactly once)."""
        if self.is_complete:
            raise RuntimeError(f"command {self.command_id} completed twice")
        self.completion_time_us = now
        listeners, self._listeners = self._listeners, []
        for listener in listeners:
            listener(now)


@dataclass
class KernelCommand(Command):
    """A kernel-launch command targeting the execution engine."""

    launch: KernelLaunch = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.launch is None:
            raise ValueError("KernelCommand requires a KernelLaunch")

    @property
    def engine(self) -> str:
        return "execution"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelCommand(id={self.command_id}, {self.launch.describe()})"


@dataclass
class TransferCommand(Command):
    """A DMA data-transfer command targeting the data-transfer engine."""

    size_bytes: int = 0
    direction: TransferDirection = TransferDirection.HOST_TO_DEVICE

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("transfer size must be non-negative")

    @property
    def engine(self) -> str:
        return "transfer"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferCommand(id={self.command_id}, {self.direction.value}, "
            f"{self.size_bytes}B, ctx={self.context_id})"
        )


class HardwareQueue:
    """One hardware command queue (Hyper-Q slot).

    The command dispatcher inspects the head of the queue.  After issuing the
    head command to an engine the queue is *disabled* until that engine
    reports completion, which preserves the in-order semantics of the stream
    mapped to the queue.

    :attr:`ready` (enabled and not empty) is a plain attribute that
    :meth:`push`, :meth:`pop` and the :attr:`in_flight` setter keep exact,
    so the dispatcher's sweep tests each queue with one read.
    """

    def __init__(self, queue_id: int):
        self.queue_id = queue_id
        self._commands: Deque[Command] = deque()
        self._in_flight: Optional[Command] = None
        #: Whether the dispatcher should inspect the head: no command in
        #: flight and at least one waiting.
        self.ready = False
        #: Total commands that ever passed through the queue.
        self.total_enqueued = 0

    @property
    def in_flight(self) -> Optional[Command]:
        """Command currently being executed by an engine (queue disabled)."""
        return self._in_flight

    @in_flight.setter
    def in_flight(self, command: Optional[Command]) -> None:
        self._in_flight = command
        self.ready = command is None and bool(self._commands)

    def push(self, command: Command, now: float) -> None:
        """Append a command to the tail of the queue."""
        command.enqueue_time_us = now
        self._commands.append(command)
        self.total_enqueued += 1
        self.ready = self._in_flight is None

    def head(self) -> Optional[Command]:
        """The command at the head of the queue (without removing it)."""
        return self._commands[0] if self._commands else None

    def pop(self) -> Command:
        """Remove and return the head command."""
        command = self._commands.popleft()
        self.ready = self._in_flight is None and bool(self._commands)
        return command

    @property
    def enabled(self) -> bool:
        """Whether the dispatcher may inspect this queue."""
        return self._in_flight is None

    @property
    def empty(self) -> bool:
        """Whether the queue holds no waiting commands."""
        return not self._commands

    @property
    def depth(self) -> int:
        """Number of waiting commands (excluding the in-flight one)."""
        return len(self._commands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "blocked"
        return f"HardwareQueue(id={self.queue_id}, depth={self.depth}, {state})"
