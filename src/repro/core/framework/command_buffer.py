"""Per-context command buffers of the scheduling framework.

"Command Buffers receive the commands from the command dispatcher and
separate the execution commands from different contexts.  Each command buffer
can store one command." (paper Sec. 3.3)

A full buffer exerts back-pressure on the command dispatcher: the dispatcher
leaves the command at the head of its hardware queue and retries when the
execution engine signals that buffers were drained.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.gpu.command_queue import KernelCommand


class CommandBufferSet:
    """One single-entry command buffer per GPU context."""

    def __init__(self, max_contexts: int = 64):
        if max_contexts < 1:
            raise ValueError("max_contexts must be at least 1")
        self._max_contexts = max_contexts
        self._buffers: Dict[int, Optional[KernelCommand]] = {}
        #: Buffers holding a command, kept by :meth:`offer` and :meth:`take`.
        self._pending = 0
        self.total_buffered = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # Producer side (command dispatcher)
    # ------------------------------------------------------------------
    def offer(self, command: KernelCommand) -> bool:
        """Try to store ``command`` in its context's buffer.

        Returns ``True`` on success; ``False`` if the buffer already holds a
        command (back-pressure) — the caller must retry later.
        """
        context_id = command.context_id
        if context_id not in self._buffers:
            if len(self._buffers) >= self._max_contexts:
                self.rejected += 1
                return False
            self._buffers[context_id] = None
        if self._buffers[context_id] is not None:
            self.rejected += 1
            return False
        self._buffers[context_id] = command
        self._pending += 1
        self.total_buffered += 1
        return True

    # ------------------------------------------------------------------
    # Consumer side (scheduling policy)
    # ------------------------------------------------------------------
    def peek(self, context_id: int) -> Optional[KernelCommand]:
        """The command buffered for ``context_id``, without removing it."""
        return self._buffers.get(context_id)

    def take(self, context_id: int) -> KernelCommand:
        """Remove and return the command buffered for ``context_id``."""
        command = self._buffers.get(context_id)
        if command is None:
            raise KeyError(f"no command buffered for context {context_id}")
        self._buffers[context_id] = None
        self._pending -= 1
        return command

    def pending(self) -> List[KernelCommand]:
        """All buffered commands, oldest first (by enqueue time, then id)."""
        if not self._pending:
            return []
        commands = [cmd for cmd in self._buffers.values() if cmd is not None]
        commands.sort(key=lambda c: (c.enqueue_time_us if c.enqueue_time_us is not None else 0.0, c.command_id))
        return commands

    @property
    def has_pending(self) -> bool:
        """Whether any context has a buffered command (O(1))."""
        return self._pending > 0

    def occupancy(self) -> int:
        """Number of buffers currently holding a command (O(1))."""
        return self._pending

    def contexts(self) -> List[int]:
        """All context ids that ever buffered a command."""
        return list(self._buffers.keys())
