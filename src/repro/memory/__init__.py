"""Memory-system substrate: GPU DRAM, PCIe interconnect, the data-transfer
(DMA) engine and per-context address spaces.

The paper's data-transfer engine (Fig. 1, block 5) moves data between CPU and
GPU memory over the PCIe bus; it is scheduled independently of the execution
engine (FCFS or non-preemptive priority, depending on the experiment).  The
memory hierarchy itself needs only minimal awareness of multiprogramming —
per-context page tables — because address translation happens at the private
levels of the hierarchy (paper Sec. 3.1).  Kernel times are traced, so no
simulated access translates an address: an address space here is just its
live allocation ranges, and no per-page table is kept (see
:mod:`repro.memory.address_space`).
"""

from repro.memory.address_space import AddressSpace
from repro.memory.allocator import AllocationError, GPUMemoryAllocator
from repro.memory.dram import DRAMModel
from repro.memory.pcie import PCIeBus
from repro.memory.transfer_engine import DataTransferEngine, TransferSchedulingPolicy

__all__ = [
    "AddressSpace",
    "GPUMemoryAllocator",
    "AllocationError",
    "DRAMModel",
    "PCIeBus",
    "DataTransferEngine",
    "TransferSchedulingPolicy",
]
