"""Base classes and interfaces for scheduling policies.

A policy receives event hooks from the execution engine (a kernel command was
buffered, a kernel finished, an SM became idle) and reacts by performing
framework operations (admitting commands into the active queue) and engine
operations (setting up idle SMs, reserving running SMs for preemption).

The split mirrors the paper's "scheduling framework" vs "scheduling policy"
separation (Sec. 3.3): the framework tracks state, the policy decides.
"""

from __future__ import annotations

import abc
from typing import Optional, Protocol

from repro.core.framework.framework import SchedulingFramework
from repro.core.framework.tables import KernelStatusEntry
from repro.gpu.command_queue import KernelCommand


class ExecutionEngineOps(Protocol):
    """Operations the execution engine exposes to scheduling policies."""

    @property
    def framework(self) -> SchedulingFramework:
        ...  # pragma: no cover - protocol definition

    @property
    def num_sms(self) -> int:
        ...  # pragma: no cover - protocol definition

    def activate_command(self, command: KernelCommand) -> KernelStatusEntry:
        """Admit a buffered command to the active queue / KSRT."""
        ...  # pragma: no cover - protocol definition

    def setup_sm(self, sm_id: int, ksr_index: int) -> None:
        """Set up an idle SM for an active kernel and start issuing blocks."""
        ...  # pragma: no cover - protocol definition

    def reserve_sm(self, sm_id: int, next_ksr_index: Optional[int]) -> None:
        """Reserve a running SM; the preemption mechanism will free it."""
        ...  # pragma: no cover - protocol definition

    def update_reservation(self, sm_id: int, next_ksr_index: Optional[int]) -> None:
        """Change the kernel a reserved SM is destined for."""
        ...  # pragma: no cover - protocol definition


class SchedulingPolicy(abc.ABC):
    """Abstract scheduling policy."""

    #: Short name used in experiment reports.
    name: str = "abstract"

    def __init__(self) -> None:
        self._engine: Optional[ExecutionEngineOps] = None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, engine: ExecutionEngineOps) -> None:
        """Attach the policy to the execution engine (called once)."""
        self._engine = engine

    @property
    def engine(self) -> ExecutionEngineOps:
        """The bound execution engine."""
        if self._engine is None:
            raise RuntimeError(f"policy {self.name} is not bound to an engine")
        return self._engine

    @property
    def framework(self) -> SchedulingFramework:
        """The scheduling framework of the bound engine."""
        return self.engine.framework

    # ------------------------------------------------------------------
    # Hooks invoked by the execution engine
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_command_buffered(self, command: KernelCommand) -> None:
        """A kernel command was stored in a command buffer."""

    @abc.abstractmethod
    def on_kernel_finished(self, ksr_index: int, entry: KernelStatusEntry) -> None:
        """An active kernel finished; its KSR entry has just been freed.

        ``entry`` is the (now invalid) KSR entry, passed for bookkeeping such
        as returning DSS tokens or recording statistics.
        """

    @abc.abstractmethod
    def on_sm_idle(self, sm_id: int, previous_ksr_index: Optional[int]) -> None:
        """An SM became idle.

        ``previous_ksr_index`` identifies the kernel the SM was last assigned
        or destined to (it may already be invalid if that kernel finished).
        """

    def on_kernel_activated(self, entry: KernelStatusEntry) -> None:
        """A kernel was admitted to the active queue (optional hook)."""

    # ------------------------------------------------------------------
    # Helpers shared by concrete policies
    # ------------------------------------------------------------------
    def _sms_needed(self, entry: KernelStatusEntry) -> int:
        """How many SMs the kernel could productively use right now.

        The estimate is the number of SMs needed to hold every issuable block
        at the kernel's occupancy, capped at the machine size.
        """
        issuable = self.framework.issuable_blocks(entry.index)
        if issuable <= 0:
            return 0
        per_sm = max(1, entry.blocks_per_sm)
        needed = -(-issuable // per_sm)  # ceil division
        return min(needed, self.engine.num_sms)

    def _reserved_for(self, ksr_index: int) -> int:
        """Number of SMs currently reserved and destined for ``ksr_index``."""
        smst = self.framework.smst
        if not smst.reserved_count:
            # Nothing is reserved (the common case on every scheduling tick
            # outside an in-flight preemption): skip the per-SM scan.
            return 0
        return sum(
            1
            for sm_entry in smst
            if sm_entry.is_reserved and sm_entry.next_ksr_index == ksr_index
        )

    def _wants_more_sms(self, entry: KernelStatusEntry) -> bool:
        """Whether giving the kernel another SM would be productive."""
        held = entry.num_assigned_sms + self._reserved_for(entry.index)
        return held < self._sms_needed(entry)

    def describe(self) -> str:
        """Human-readable policy description for reports."""
        return self.name
