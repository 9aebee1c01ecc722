"""The baseline FCFS policy (models current GPUs, paper Sec. 2.3).

Kernel commands are admitted strictly in arrival order.  Because today's GPUs
"do not support concurrent execution of commands from different contexts on
the same engine", a command is only admitted while the execution engine is
empty or running kernels from the *same* context; commands from other
contexts wait.  Within a context, independent kernels may execute
back-to-back (the Hyper-Q behaviour) unless the policy's ``back_to_back``
option is off.

The FCFS policy never preempts.
"""

from __future__ import annotations

from typing import Optional

from repro.core.framework.tables import KernelStatusEntry
from repro.core.policies.base import SchedulingPolicy
from repro.gpu.command_queue import KernelCommand
from repro.registry import register_policy


@register_policy("fcfs", "first_come_first_serve")
class FCFSPolicy(SchedulingPolicy):
    """First-come first-serve, one context at a time."""

    name = "fcfs"

    def __init__(self, *, back_to_back: bool = True):
        super().__init__()
        #: Whether independent kernels from the same context may overlap.
        self.back_to_back = back_to_back

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_command_buffered(self, command: KernelCommand) -> None:
        self._admit_and_assign()

    def on_kernel_finished(self, ksr_index: int, entry: KernelStatusEntry) -> None:
        self._admit_and_assign()

    def on_sm_idle(self, sm_id: int, previous_ksr_index: Optional[int]) -> None:
        self._admit_and_assign()

    # ------------------------------------------------------------------
    # Decision logic
    # ------------------------------------------------------------------
    def _admit_and_assign(self) -> None:
        self._try_admit()
        self._assign_idle_sms()

    def _try_admit(self) -> None:
        """Admit commands in arrival order, respecting context exclusivity."""
        framework = self.framework
        while framework.has_active_capacity:
            pending = framework.pending_commands()
            if not pending:
                return
            next_command = pending[0]
            active = framework.active_entries()
            if active:
                same_context = all(e.context_id == next_command.context_id for e in active)
                if not same_context:
                    # Current GPUs serialise contexts on the execution engine.
                    return
                if not self.back_to_back:
                    return
            entry = self.engine.activate_command(next_command)
            self.on_kernel_activated(entry)

    def _assign_idle_sms(self) -> None:
        """Give every idle SM to the oldest active kernel that has work."""
        framework = self.framework
        for sm_id in framework.idle_sms():
            target = None
            for entry in framework.active_entries():
                if framework.kernel_has_issuable_work(entry.index):
                    target = entry
                    break
            if target is None:
                return
            self.engine.setup_sm(sm_id, target.index)
