"""A bandwidth-oriented model of the GPU's off-chip DRAM.

The simulator does not model individual memory accesses of kernels (their
effect is already folded into the traced thread-block execution times).  The
DRAM model exists for the two consumers that the paper reasons about
explicitly:

* context save/restore traffic of the context-switch preemption mechanism,
  which is charged at the SM's *share* of the aggregate bandwidth, and
* DMA transfers landing in (or read from) device memory.

It also tracks capacity so that the allocator can refuse over-subscription
("allocations from all contexts reside in the GPU physical memory",
paper Sec. 2.2).
"""

from __future__ import annotations

from repro.gpu.config import GPUConfig


class DRAMModel:
    """GPU DRAM: capacity accounting plus simple bandwidth arithmetic."""

    def __init__(self, config: GPUConfig):
        self._config = config
        self._allocated_bytes = 0

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Total device-memory capacity."""
        return self._config.dram_capacity_bytes

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently reserved by allocations."""
        return self._allocated_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes still available for allocation."""
        return self.capacity_bytes - self._allocated_bytes

    def reserve(self, size_bytes: int) -> None:
        """Account for an allocation of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        if size_bytes > self.free_bytes:
            raise MemoryError(
                f"GPU DRAM exhausted: requested {size_bytes} B, free {self.free_bytes} B"
            )
        self._allocated_bytes += size_bytes

    def release(self, size_bytes: int) -> None:
        """Account for freeing an allocation of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        self._allocated_bytes = max(0, self._allocated_bytes - size_bytes)

    # ------------------------------------------------------------------
    # Bandwidth arithmetic
    # ------------------------------------------------------------------
    @property
    def bandwidth_bytes_per_us(self) -> float:
        """Aggregate DRAM bandwidth in bytes per microsecond."""
        return self._config.memory_bandwidth_bytes_per_us

    def transfer_time_us(self, size_bytes: int, *, bandwidth_share: float = 1.0) -> float:
        """Time to move ``size_bytes`` at a fraction of the peak bandwidth."""
        if not 0.0 < bandwidth_share <= 1.0:
            raise ValueError("bandwidth_share must be in (0, 1]")
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if size_bytes == 0:
            return 0.0
        return size_bytes / (self.bandwidth_bytes_per_us * bandwidth_share)

    def per_sm_transfer_time_us(self, size_bytes: int) -> float:
        """Time to move ``size_bytes`` at one SM's bandwidth share.

        This is the quantity the paper uses for projected context-save times.
        """
        return self.transfer_time_us(size_bytes, bandwidth_share=1.0 / self._config.num_sms)
