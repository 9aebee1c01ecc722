"""Per-context GPU virtual address spaces (paper Sec. 3.1).

Concurrent execution of kernels from different processes requires the memory
hierarchy to keep accesses from different address spaces apart.  The paper
assumes address translation at the private levels of the hierarchy, so the
only multiprogramming-visible structures are the per-process page tables
walked on TLB misses via the per-SM base page-table register.  SMs still load
that register (``GPUContext.page_table_base``) exactly as in the paper.

An address space is just its live :class:`Allocation` ranges: each covers a
contiguous run of virtual pages backed by a contiguous run of physical
frames, and :meth:`AddressSpace.translate` answers from those ranges.  No
per-page table is kept: kernel execution times are traced, so no simulation
path walks a table or translates an address, and one entry per 4 KiB page
would only cost time and memory on every allocation.  Isolation between
contexts holds by construction, because the allocator never reuses a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

PAGE_SIZE = 4096


@dataclass
class Allocation:
    """One GPU memory allocation owned by a context: ``num_pages`` virtual
    pages from ``virtual_address``, backed by the frames from ``first_frame``."""

    virtual_address: int
    size_bytes: int
    first_frame: int
    num_pages: int


class AddressSpace:
    """The GPU virtual address space of one context."""

    #: Virtual allocations start at this address (arbitrary, non-zero so that
    #: address 0 stays an obvious "null pointer").
    BASE_VIRTUAL_ADDRESS = 0x1_0000_0000

    def __init__(self, context_id: int):
        self.context_id = context_id
        self._allocations: Dict[int, Allocation] = {}
        self._next_virtual = self.BASE_VIRTUAL_ADDRESS

    def record_allocation(self, size_bytes: int, first_frame: int) -> Allocation:
        """Create an allocation of ``size_bytes`` backed by frames starting
        at ``first_frame``."""
        if size_bytes <= 0:
            raise ValueError("allocation size must be positive")
        num_pages = -(-size_bytes // PAGE_SIZE)
        virtual_address = self._next_virtual
        self._next_virtual += num_pages * PAGE_SIZE
        allocation = Allocation(virtual_address, size_bytes, first_frame, num_pages)
        self._allocations[virtual_address] = allocation
        return allocation

    def remove_allocation(self, virtual_address: int) -> Allocation:
        """Forget the allocation at ``virtual_address``."""
        allocation = self._allocations.pop(virtual_address, None)
        if allocation is None:
            raise KeyError(f"no allocation at {virtual_address:#x}")
        return allocation

    def allocation_containing(self, virtual_address: int) -> Optional[Allocation]:
        """The live allocation whose pages cover ``virtual_address`` (if any)."""
        for allocation in self._allocations.values():
            if 0 <= virtual_address - allocation.virtual_address < allocation.num_pages * PAGE_SIZE:
                return allocation
        return None

    def translate(self, virtual_address: int) -> int:
        """Translate a virtual address to a device-physical address."""
        allocation = self.allocation_containing(virtual_address)
        if allocation is None:
            raise KeyError(f"page fault: virtual address {virtual_address:#x} is not mapped")
        return allocation.first_frame * PAGE_SIZE + virtual_address - allocation.virtual_address

    @property
    def allocated_bytes(self) -> int:
        """Total bytes currently allocated in this address space."""
        return sum(a.size_bytes for a in self._allocations.values())

    def allocations(self) -> Iterator[Allocation]:
        """Iterate over the live allocations."""
        return iter(list(self._allocations.values()))
