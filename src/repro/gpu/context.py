"""GPU contexts and the engine-level context table (paper Sec. 3.1).

Each process that uses the GPU gets its own GPU context, which contains the
page table of the GPU memory and the streams defined by the programmer.  To
support concurrent execution of kernels from different processes the paper
extends the execution engine with a *context table* holding the information
of all active contexts, and extends every SM with a context-id register and a
base page-table register so it can translate addresses for the context it is
currently executing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class GPUContext:
    """Per-process GPU state.

    Attributes
    ----------
    context_id:
        Unique identifier assigned by the driver when the process first uses
        the GPU.
    process_name:
        Name of the owning host process (for reporting).
    page_table_base:
        Simulated physical address of the context's top-level page table.
        The value only has to be distinct per context: no table sits behind
        it (kernel times are traced, so nothing walks one; see
        :mod:`repro.memory.address_space`), but SMs load it into their base
        page-table register during setup, exactly as in the paper.
    priority:
        Scheduling priority of the owning process (higher is more important).
    tokens:
        DSS token budget of the owning process (Sec. 3.4).
    """

    context_id: int
    process_name: str
    page_table_base: int = 0
    priority: int = 0
    tokens: int = 0
    #: Registered kernels (name -> opaque handle); mirrors the "GPU kernels
    #: registered by the process" held in the global control registers.
    registered_kernels: Dict[str, int] = field(default_factory=dict)

    def register_kernel(self, name: str) -> int:
        """Register a kernel name with the context, returning its handle."""
        if name not in self.registered_kernels:
            self.registered_kernels[name] = len(self.registered_kernels) + 1
        return self.registered_kernels[name]


class ContextTable:
    """Bounded table of active GPU contexts in the execution engine.

    The baseline architecture only tracks a single context in its global
    control registers; the paper's extension turns that into a table so that
    kernels from different processes can execute concurrently on disjoint
    sets of SMs.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("context table capacity must be at least 1")
        self._capacity = capacity
        self._contexts: Dict[int, GPUContext] = {}
        self._next_id = 1

    @property
    def capacity(self) -> int:
        """Maximum number of simultaneously registered contexts."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._contexts)

    def __iter__(self) -> Iterator[GPUContext]:
        return iter(self._contexts.values())

    def __contains__(self, context_id: int) -> bool:
        return context_id in self._contexts

    def create(self, process_name: str, *, priority: int = 0, tokens: int = 0) -> GPUContext:
        """Create and register a new context for ``process_name``."""
        if len(self._contexts) >= self._capacity:
            raise RuntimeError("context table is full")
        context_id = self._next_id
        self._next_id += 1
        context = GPUContext(
            context_id=context_id,
            process_name=process_name,
            page_table_base=0x1000_0000 + context_id * 0x10_0000,
            priority=priority,
            tokens=tokens,
        )
        self._contexts[context_id] = context
        return context

    def get(self, context_id: int) -> GPUContext:
        """Look up a context by id, raising ``KeyError`` if absent."""
        return self._contexts[context_id]

    def find(self, context_id: int) -> Optional[GPUContext]:
        """Look up a context by id, returning ``None`` if absent."""
        return self._contexts.get(context_id)

    def destroy(self, context_id: int) -> None:
        """Remove a context (process teardown)."""
        self._contexts.pop(context_id, None)

    def by_process(self, process_name: str) -> Optional[GPUContext]:
        """Find the context owned by ``process_name`` (if any)."""
        for context in self._contexts.values():
            if context.process_name == process_name:
                return context
        return None
