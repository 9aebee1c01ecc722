"""Hardware tables of the scheduling framework (KSRT, SMST, PTBQ, active queue).

These mirror the structures of Fig. 4 in the paper.  They are modelled as
bounded tables: the paper sizes the active queue, KSRT and SMST with one
entry per SM and each PTBQ with ``num_sms * max_blocks_per_sm`` entries so
that the handles of preempted thread blocks always fit on chip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Set

from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import SMState
from repro.gpu.thread_block import ThreadBlock


@dataclass(slots=True)
class KernelStatusEntry:
    """One Kernel Status Register (a valid KSRT entry).

    The KSR holds "control information such as number of work units to
    execute, kernel parameters..." (paper Sec. 2.3), augmented by the
    framework with the GPU context id and, for the DSS policy, the current
    token count.
    """

    index: int
    launch: KernelLaunch
    context_id: int
    valid: bool = True
    #: Current DSS token count (may go negative: the kernel is "in debt").
    token_count: int = 0
    #: SMs currently set up (or being set up) for this kernel.
    assigned_sms: Set[int] = field(default_factory=set)
    #: Cached occupancy: how many blocks of this kernel fit on one SM.
    blocks_per_sm: int = 1
    #: Cached shared-memory configuration the SM must select (bytes).
    shared_memory_config: int = 0
    #: Time the kernel was admitted to the active queue.
    activation_time_us: float = 0.0

    @property
    def priority(self) -> int:
        """Scheduling priority inherited from the launching process."""
        return self.launch.priority

    @property
    def num_assigned_sms(self) -> int:
        """Number of SMs currently assigned to the kernel."""
        return len(self.assigned_sms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KSR(index={self.index}, {self.launch.describe()}, "
            f"tokens={self.token_count}, sms={sorted(self.assigned_sms)})"
        )


class KernelStatusRegisterTable:
    """Bounded table of Kernel Status Registers (the KSRT).

    The occupancy is a counter kept by :meth:`allocate` and :meth:`free`,
    so :attr:`occupancy` and :attr:`has_free_entry` cost O(1) instead of a
    scan of every slot.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("KSRT capacity must be at least 1")
        self._capacity = capacity
        self._entries: List[Optional[KernelStatusEntry]] = [None] * capacity
        self._by_launch: Dict[int, int] = {}
        self._occupancy = 0

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously active kernels."""
        return self._capacity

    @property
    def occupancy(self) -> int:
        """Number of valid entries (O(1))."""
        return self._occupancy

    @property
    def has_free_entry(self) -> bool:
        """Whether a new kernel can be admitted (O(1))."""
        return self._occupancy < self._capacity

    def allocate(self, launch: KernelLaunch, *, activation_time_us: float) -> KernelStatusEntry:
        """Allocate the lowest free entry for ``launch``."""
        for index, existing in enumerate(self._entries):
            if existing is None:
                entry = KernelStatusEntry(
                    index=index,
                    launch=launch,
                    context_id=launch.context_id,
                    token_count=launch.tokens,
                    activation_time_us=activation_time_us,
                )
                self._entries[index] = entry
                self._by_launch[launch.launch_id] = index
                self._occupancy += 1
                return entry
        raise RuntimeError("KSRT is full")

    def free(self, index: int) -> KernelStatusEntry:
        """Invalidate and return the entry at ``index`` (KeyError if invalid)."""
        entry = self.get(index)
        entry.valid = False
        self._entries[index] = None
        self._by_launch.pop(entry.launch.launch_id, None)
        self._occupancy -= 1
        return entry

    def get(self, index: int) -> KernelStatusEntry:
        """Return the valid entry at ``index`` (KeyError if invalid).

        An index outside ``[0, capacity)`` is invalid too: a negative one
        must not wrap around to the last entries.
        """
        try:
            entry = self._entries[index] if index >= 0 else None
        except IndexError:
            entry = None
        if entry is None:
            raise KeyError(f"KSRT entry {index} is not valid")
        return entry

    def find(self, index: int) -> Optional[KernelStatusEntry]:
        """Return the entry at ``index`` or ``None`` if it is invalid."""
        if not 0 <= index < self._capacity:
            return None
        return self._entries[index]

    def is_valid(self, index: Optional[int]) -> bool:
        """Whether ``index`` refers to a valid entry."""
        return index is not None and 0 <= index < self._capacity and self._entries[index] is not None

    def index_for_launch(self, launch_id: int) -> Optional[int]:
        """KSRT index of the entry tracking ``launch_id`` (if active)."""
        return self._by_launch.get(launch_id)

    def valid_entries(self) -> List[KernelStatusEntry]:
        """All valid entries, in index order."""
        return [entry for entry in self._entries if entry is not None]

    def __iter__(self) -> Iterator[KernelStatusEntry]:
        return iter(self.valid_entries())

    def __len__(self) -> int:
        return self._occupancy


class SMStatusEntry:
    """One entry of the SM Status Table.

    Tracks the kernel being executed (KSR index), the state of the SM (idle,
    setup, running or reserved), and the KSR index of the *next* kernel when
    the SM is reserved (paper Sec. 3.3).  The paper's count of running thread
    blocks lives on the SM itself, as
    :attr:`~repro.gpu.sm.StreamingMultiprocessor.resident_blocks`.

    :attr:`state` is read-only on the entry: transitions must go through
    :meth:`SMStatusTable.set_state`, which keeps the table's incremental
    idle/reserved bookkeeping exact (a direct write would silently desync
    ``idle_sms()`` and ``reserved_count``).
    """

    __slots__ = ("sm_id", "_state", "ksr_index", "next_ksr_index")

    def __init__(
        self,
        sm_id: int,
        state: SMState = SMState.IDLE,
        ksr_index: Optional[int] = None,
        next_ksr_index: Optional[int] = None,
    ):
        self.sm_id = sm_id
        self._state = state
        self.ksr_index = ksr_index
        self.next_ksr_index = next_ksr_index

    @property
    def state(self) -> SMState:
        """Current SM state (mutate via :meth:`SMStatusTable.set_state`)."""
        return self._state

    @property
    def is_idle(self) -> bool:
        """Whether the SM is idle (available for assignment)."""
        return self.state is SMState.IDLE

    @property
    def is_running(self) -> bool:
        """Whether the SM is set up and running a kernel."""
        return self.state is SMState.RUNNING

    @property
    def is_reserved(self) -> bool:
        """Whether a policy reserved the SM and preemption is in progress."""
        return self.state is SMState.RESERVED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SMST(sm={self.sm_id}, state={self.state.value}, ksr={self.ksr_index}, "
            f"next={self.next_ksr_index})"
        )


class SMStatusTable:
    """The SM Status Table: one entry per SM.

    State transitions go through :meth:`set_state` (the scheduling framework
    is the only mutator).  It keeps two counts incremental: the set of idle
    SMs (so :attr:`idle_count` is O(1) and :meth:`idle_sms` sorts only the
    idle ids) and :attr:`reserved_count`.  The per-kernel queries
    (:meth:`sms_for_ksr`, :meth:`running_sms`, :meth:`reserved_sms`) still
    scan every entry; the policies' hot paths read a kernel's SMs from
    :attr:`KernelStatusEntry.assigned_sms` instead.
    """

    def __init__(self, num_sms: int):
        if num_sms < 1:
            raise ValueError("the GPU needs at least one SM")
        self._entries = [SMStatusEntry(sm_id=i) for i in range(num_sms)]
        self._idle = set(range(num_sms))
        self._reserved_count = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SMStatusEntry]:
        return iter(self._entries)

    def entry(self, sm_id: int) -> SMStatusEntry:
        """Entry of SM ``sm_id``."""
        return self._entries[sm_id]

    def set_state(self, sm_id: int, state: SMState) -> None:
        """Transition SM ``sm_id`` to ``state`` (keeps the bookkeeping exact)."""
        entry = self._entries[sm_id]
        old = entry._state
        if old is state:
            return
        if old is SMState.IDLE:
            self._idle.discard(sm_id)
        elif old is SMState.RESERVED:
            self._reserved_count -= 1
        if state is SMState.IDLE:
            self._idle.add(sm_id)
        elif state is SMState.RESERVED:
            self._reserved_count += 1
        entry._state = state

    @property
    def reserved_count(self) -> int:
        """Number of SMs currently in the RESERVED state (O(1))."""
        return self._reserved_count

    @property
    def idle_count(self) -> int:
        """Number of SMs currently in the IDLE state (O(1))."""
        return len(self._idle)

    def idle_sms(self) -> List[int]:
        """Ids of all idle SMs, in ascending order."""
        return sorted(self._idle)

    def running_sms(self) -> List[int]:
        """Ids of all SMs in the RUNNING state."""
        return [e.sm_id for e in self._entries if e.is_running]

    def reserved_sms(self) -> List[int]:
        """Ids of all SMs in the RESERVED state."""
        return [e.sm_id for e in self._entries if e.is_reserved]

    def sms_for_ksr(self, ksr_index: int, *, state: Optional[SMState] = None) -> List[int]:
        """SMs currently associated with KSR ``ksr_index``.

        When ``state`` is given, only SMs in that state are returned.
        """
        out = []
        for entry in self._entries:
            if entry.ksr_index != ksr_index:
                continue
            if state is not None and entry.state is not state:
                continue
            out.append(entry.sm_id)
        return out


class PreemptedThreadBlockQueue:
    """One Preempted Thread Block Queue (PTBQ).

    Stores the handles (id + saved-context pointer, modelled here as the
    :class:`~repro.gpu.thread_block.ThreadBlock` object itself) of thread
    blocks preempted by the context-switch mechanism.  The queue is bounded
    to ``num_sms * max_blocks_per_sm`` entries; the paper keeps preempted
    blocks bounded by always issuing them before fresh blocks.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("PTBQ capacity must be at least 1")
        self._capacity = capacity
        self._queue: Deque[ThreadBlock] = deque()
        self.total_pushed = 0

    @property
    def capacity(self) -> int:
        """Maximum number of stored preempted-thread-block handles."""
        return self._capacity

    def push(self, block: ThreadBlock) -> None:
        """Append a preempted block handle to the queue."""
        if len(self._queue) >= self._capacity:
            raise RuntimeError("PTBQ overflow: more preempted blocks than the hardware can track")
        self._queue.append(block)
        self.total_pushed += 1

    def pop(self) -> Optional[ThreadBlock]:
        """Remove and return the oldest preempted block, or ``None``."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def empty(self) -> bool:
        """Whether the queue holds no preempted blocks."""
        return not self._queue

    def clear(self) -> None:
        """Drop all stored handles (used when the owning kernel is freed)."""
        self._queue.clear()


class ActiveQueue:
    """The Active Queue: identifiers (KSRT indices) of active kernels."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("active queue capacity must be at least 1")
        self._capacity = capacity
        self._entries: List[int] = []

    @property
    def capacity(self) -> int:
        """Maximum number of active kernels."""
        return self._capacity

    @property
    def has_space(self) -> bool:
        """Whether another kernel can become active."""
        return len(self._entries) < self._capacity

    def push(self, ksr_index: int) -> None:
        """Add a KSR index to the active queue."""
        if not self.has_space:
            raise RuntimeError("active queue is full")
        if ksr_index in self._entries:
            raise ValueError(f"KSR {ksr_index} is already in the active queue")
        self._entries.append(ksr_index)

    def remove(self, ksr_index: int) -> None:
        """Remove a KSR index (when its kernel finishes)."""
        self._entries.remove(ksr_index)

    def __contains__(self, ksr_index: int) -> bool:
        return ksr_index in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        """Iterate KSR indices in activation (arrival) order."""
        return iter(list(self._entries))
