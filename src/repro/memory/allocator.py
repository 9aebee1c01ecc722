"""The GPU physical-memory allocator.

Current-generation GPUs (including the paper's baseline) do not support
demand paging, so every allocation from every context must fit in device
memory at the same time (paper Sec. 2.2).  The allocator hands out physical
frames to per-context address spaces and enforces both capacity and
isolation: a frame belongs to exactly one context until freed.  Frames are
handed out from a counter that only grows and are never reused, so no two
allocations ever share a frame; ownership queries search the live ranges.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memory.address_space import PAGE_SIZE, AddressSpace, Allocation
from repro.memory.dram import DRAMModel


class AllocationError(MemoryError):
    """Raised when device memory cannot satisfy an allocation."""


class GPUMemoryAllocator:
    """Frame-granular allocator over the GPU DRAM."""

    def __init__(self, dram: DRAMModel):
        self._dram = dram
        self._next_frame = 0
        self._spaces: Dict[int, AddressSpace] = {}

    # ------------------------------------------------------------------
    # Address spaces
    # ------------------------------------------------------------------
    def address_space(self, context_id: int) -> AddressSpace:
        """The (lazily created) address space of ``context_id``."""
        if context_id not in self._spaces:
            self._spaces[context_id] = AddressSpace(context_id)
        return self._spaces[context_id]

    def destroy_address_space(self, context_id: int) -> None:
        """Free every allocation of a context (process teardown)."""
        space = self._spaces.pop(context_id, None)
        if space is None:
            return
        for allocation in space.allocations():
            space.remove_allocation(allocation.virtual_address)
            self._dram.release(allocation.num_pages * PAGE_SIZE)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def malloc(self, context_id: int, size_bytes: int) -> Allocation:
        """Allocate ``size_bytes`` of device memory for ``context_id``."""
        if size_bytes <= 0:
            raise ValueError("allocation size must be positive")
        num_pages = -(-size_bytes // PAGE_SIZE)
        reserve_bytes = num_pages * PAGE_SIZE
        try:
            self._dram.reserve(reserve_bytes)
        except MemoryError as exc:
            raise AllocationError(str(exc)) from exc
        first_frame = self._next_frame
        self._next_frame += num_pages
        space = self.address_space(context_id)
        return space.record_allocation(size_bytes, first_frame)

    def free(self, context_id: int, virtual_address: int) -> None:
        """Free an allocation owned by ``context_id``."""
        space = self.address_space(context_id)
        allocation = space.remove_allocation(virtual_address)
        self._dram.release(allocation.num_pages * PAGE_SIZE)

    # ------------------------------------------------------------------
    # Isolation queries
    # ------------------------------------------------------------------
    def frame_owner(self, frame: int) -> Optional[int]:
        """The context owning a physical frame (``None`` if free)."""
        for context_id, space in self._spaces.items():
            for allocation in space.allocations():
                if 0 <= frame - allocation.first_frame < allocation.num_pages:
                    return context_id
        return None

    def owns(self, context_id: int, virtual_address: int) -> bool:
        """Whether ``context_id`` has a live allocation covering the address."""
        space = self._spaces.get(context_id)
        return space is not None and space.allocation_containing(virtual_address) is not None
