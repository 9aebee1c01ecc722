"""Base interface for preemption mechanisms.

A mechanism is a *stateless-per-request strategy*: it is bound once to a
*host* (the execution engine / SM driver), keeps all transient bookkeeping
keyed by SM id, and can therefore serve any number of interleaved preemptions
on different SMs.  Which mechanism handles a given preemption request is
decided by the engine's :class:`~repro.core.preemption.controller.PreemptionController`
— the same instance may free SM0 while a different mechanism frees SM1.

A mechanism is invoked in two situations:

* :meth:`PreemptionMechanism.initiate` — the scheduling policy just reserved
  the SM; the mechanism must free it (immediately, by saving state, or by
  waiting for draining).
* :meth:`PreemptionMechanism.on_block_completed` — a unit resident on a
  reserved SM (a thread block, or a span of fresh blocks) completed
  naturally; the mechanism decides whether the SM is now free.

When the SM is free the mechanism calls
:meth:`PreemptionHost.preemption_complete`, handing back any thread blocks it
evicted so the SM driver can store them in the kernel's PTBQ.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Protocol

from repro.core.framework.framework import SchedulingFramework
from repro.gpu.config import SystemConfig
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.thread_block import ThreadBlock
from repro.sim.engine import Simulator


class PreemptionHost(Protocol):
    """The view of the execution engine a preemption mechanism needs."""

    @property
    def simulator(self) -> Simulator:
        ...  # pragma: no cover - protocol definition

    @property
    def system_config(self) -> SystemConfig:
        ...  # pragma: no cover - protocol definition

    @property
    def framework(self) -> SchedulingFramework:
        ...  # pragma: no cover - protocol definition

    def preemption_complete(self, sm_id: int, evicted_blocks: List[ThreadBlock]) -> None:
        ...  # pragma: no cover - protocol definition


class PreemptionMechanism(abc.ABC):
    """Abstract preemption mechanism (a per-SM-keyed strategy).

    Per-preemption state (such as scheduled save/drain events) must be keyed
    by ``sm_id`` so one bound instance can handle concurrent preemptions of
    different SMs; the only instance-wide state is the bound host.
    """

    #: Short name used in experiment reports ("context_switch" / "draining").
    name: str = "abstract"

    def __init__(self) -> None:
        self._host: Optional[PreemptionHost] = None

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, host: PreemptionHost) -> None:
        """Attach the mechanism to its host engine (called once)."""
        self._host = host

    @property
    def host(self) -> PreemptionHost:
        """The bound host; raises if the mechanism has not been bound."""
        if self._host is None:
            raise RuntimeError(f"preemption mechanism {self.name} is not bound to an engine")
        return self._host

    # ------------------------------------------------------------------
    # Mechanism hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def initiate(self, sm: StreamingMultiprocessor) -> None:
        """Begin freeing a just-reserved SM."""

    @abc.abstractmethod
    def on_block_completed(self, sm: StreamingMultiprocessor) -> None:
        """A resident unit of a reserved SM completed naturally.

        Called once per retired unit: a thread block, or a whole
        :class:`~repro.gpu.blockrun.BlockRun` span.  The mechanism decides
        whether the SM is now free; if so it calls
        :meth:`PreemptionHost.preemption_complete`.
        """

    def restore_latency_us(self, block: ThreadBlock, state_bytes_per_block: int) -> float:
        """Extra latency charged when re-issuing a previously preempted block.

        Only the context-switch mechanism ever has preempted blocks to
        restore; the default is zero.
        """
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
