"""Hardware configuration of the simulated system (paper Table 2).

The paper models a 4-core Intel i7-930 host connected over PCIe to an NVIDIA
Kepler K20c (GK110, 13 SMs).  :class:`GPUConfig`, :class:`PCIeConfig` and
:class:`CPUConfig` capture those parameters; :class:`SystemConfig` bundles
them together with the knobs of the scheduling framework.

All sizes are bytes, all times microseconds, all bandwidths bytes/µs unless a
field name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class GPUConfig:
    """Execution-engine parameters of the simulated GK110-class GPU.

    Defaults reproduce Table 2 of the paper (NVIDIA K20c).
    """

    #: Number of streaming multiprocessors (GPU cores).
    num_sms: int = 13
    #: SM core clock in MHz (only used for derived cycle-time conversions).
    clock_mhz: float = 706.0
    #: 32-bit architectural registers per SM.
    registers_per_sm: int = 65536
    #: Hardware limit on concurrently resident thread blocks per SM.
    max_thread_blocks_per_sm: int = 16
    #: Hardware limit on concurrently resident threads per SM.
    max_threads_per_sm: int = 2048
    #: Selectable shared-memory partition sizes per SM, smallest first.
    #: GK110 splits a 64 KB array between L1 and shared memory; the paper uses
    #: 16 KB as the default shared-memory configuration.
    shared_memory_configs: Tuple[int, ...] = (16 * KIB, 32 * KIB, 48 * KIB)
    #: Off-chip (GDDR5) memory bandwidth in GB/s.
    memory_bandwidth_gbps: float = 208.0
    #: Total GPU DRAM capacity in bytes (K20c has 5 GB).
    dram_capacity_bytes: int = 5 * GIB
    #: Number of hardware command queues exposed to the host (Hyper-Q).
    num_hw_queues: int = 32
    #: Fixed latency of setting up an SM for a new kernel (control registers,
    #: context registers, first-wave setup), in microseconds.
    sm_setup_latency_us: float = 1.0
    #: Latency of draining the SM pipelines before a context-save trap can
    #: start (precise-exception requirement, paper Sec. 3.2), in microseconds.
    pipeline_drain_latency_us: float = 0.5
    #: Latency for the SM driver to issue one thread block to an SM.
    tb_issue_latency_us: float = 0.05
    #: Whether the SM may aggregate same-kernel thread blocks whose completion
    #: falls on the same instant into one "wave" completion event (a pure
    #: simulation optimisation: the wave path is observably identical to the
    #: per-block path — see ``tests/gpu/test_wave_equivalence.py``).  Disable
    #: to force one heap event per thread block.
    wave_batching: bool = True

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def register_file_bytes(self) -> int:
        """Size of one SM's register file in bytes (4 bytes per register)."""
        return self.registers_per_sm * 4

    @property
    def default_shared_memory_bytes(self) -> int:
        """The default (smallest) shared-memory configuration."""
        return self.shared_memory_configs[0]

    @property
    def max_shared_memory_bytes(self) -> int:
        """The largest selectable shared-memory configuration."""
        return self.shared_memory_configs[-1]

    @property
    def on_chip_state_bytes(self) -> int:
        """Register file plus maximum shared memory: the per-SM state that a
        context switch may have to move off-chip (paper Sec. 1: "up to 256KB
        of register file and 48KB of on-chip scratch-pad memory")."""
        return self.register_file_bytes + self.max_shared_memory_bytes

    @property
    def memory_bandwidth_bytes_per_us(self) -> float:
        """Aggregate DRAM bandwidth in bytes per microsecond."""
        return self.memory_bandwidth_gbps * 1e9 / 1e6

    @property
    def per_sm_bandwidth_bytes_per_us(self) -> float:
        """One SM's share of DRAM bandwidth.

        The paper computes projected context-save times "assuming only its
        share of global memory bandwidth", i.e. the aggregate bandwidth
        divided by the number of SMs.
        """
        return self.memory_bandwidth_bytes_per_us / self.num_sms

    def shared_memory_config_for(self, requested_bytes: int) -> int:
        """Pick the smallest shared-memory configuration that fits a request.

        Mirrors the paper's footnote to Table 2: if the default configuration
        cannot satisfy a kernel's shared-memory requirement, the SM is
        configured for the first bigger configuration that does.
        """
        if requested_bytes < 0:
            raise ValueError("shared memory request must be non-negative")
        for config in self.shared_memory_configs:
            if requested_bytes <= config:
                return config
        raise ValueError(
            f"kernel requests {requested_bytes} B of shared memory per block, more than "
            f"the largest configuration ({self.max_shared_memory_bytes} B)"
        )


@dataclass(frozen=True)
class PCIeConfig:
    """PCI Express interconnect parameters (paper Table 2).

    The paper lists a 32-lane, 500 MHz bus with a 4 KB burst size.  We model
    the bus as a shared full-duplex channel with a fixed per-transfer setup
    latency and a burst-granular transfer time.
    """

    clock_mhz: float = 500.0
    lanes: int = 32
    burst_bytes: int = 4 * KIB
    #: Effective payload bits moved per lane per clock (PCIe 2.0 with 8b/10b
    #: encoding moves 0.8 payload bits per lane-cycle in each direction).
    bits_per_lane_per_cycle: float = 0.8
    #: Driver + DMA engine setup latency charged to every transfer command.
    transfer_setup_latency_us: float = 10.0

    @property
    def bandwidth_bytes_per_us(self) -> float:
        """Peak payload bandwidth per direction, in bytes per microsecond."""
        bits_per_us = self.clock_mhz * self.lanes * self.bits_per_lane_per_cycle
        return bits_per_us / 8.0

    def transfer_time_us(self, size_bytes: int) -> float:
        """Time on the bus for ``size_bytes`` (excluding setup latency).

        Transfers move in whole bursts; a transfer smaller than one burst
        still occupies the bus for a full burst.
        """
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        if size_bytes == 0:
            return 0.0
        bursts = -(-size_bytes // self.burst_bytes)  # ceil division
        return bursts * self.burst_bytes / self.bandwidth_bytes_per_us


@dataclass(frozen=True)
class CPUConfig:
    """Coarse host-CPU parameters (paper Table 2: Intel i7-930)."""

    clock_ghz: float = 2.8
    num_cores: int = 4
    threads_per_core: int = 2
    #: Latency of issuing one command from the user-space runtime through the
    #: driver to the GPU's command queues (paper cites command issue latency
    #: as significant, referencing TimeGraph).
    command_issue_latency_us: float = 5.0

    @property
    def hardware_threads(self) -> int:
        """Total simultaneous hardware threads on the host CPU."""
        return self.num_cores * self.threads_per_core


@dataclass(frozen=True)
class SchedulerConfig:
    """Sizing of the hardware scheduling framework (paper Sec. 3.3).

    The paper sizes the active queue, KSRT and SMST with one entry per SM and
    gives every active kernel a PTBQ with ``num_sms * max_tb_per_sm`` entries.
    """

    #: Maximum number of active (running or preempted) kernels.  ``None``
    #: means "equal to the number of SMs", the paper's choice.
    max_active_kernels: int | None = None
    #: Optional per-preemption latency budget (µs) surfaced to preemption
    #: controllers through :class:`~repro.core.preemption.controller.PreemptionRequest`.
    #: ``None`` leaves budget-aware controllers (e.g. ``hybrid``) on their own
    #: defaults; the built-in ``static`` and ``adaptive`` controllers ignore it.
    preemption_latency_budget_us: float | None = None

    def active_kernel_limit(self, num_sms: int) -> int:
        """Resolve the active-kernel limit for a GPU with ``num_sms`` SMs."""
        if self.max_active_kernels is not None:
            if self.max_active_kernels < 1:
                raise ValueError("max_active_kernels must be at least 1")
            return self.max_active_kernels
        return num_sms


@dataclass(frozen=True)
class SystemConfig:
    """Complete configuration of the simulated system."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    pcie: PCIeConfig = field(default_factory=PCIeConfig)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Coefficient of variation applied to per-thread-block execution times.
    #: The paper's traces contain natural variability ("the variable execution
    #: times of the thread blocks"); we synthesise it deterministically.
    tb_time_cv: float = 0.15
    #: Seed for all deterministic pseudo-random choices derived from this
    #: configuration (thread-block jitter, workload composition).
    seed: int = 2014

    def with_updates(self, **kwargs) -> "SystemConfig":
        """Return a copy of the configuration with selected fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> Dict[str, str]:
        """Human-readable parameter dump used by the Table 2 experiment."""
        gpu, pcie, cpu = self.gpu, self.pcie, self.cpu
        shared = " / ".join(f"{c // KIB}KB" for c in gpu.shared_memory_configs)
        return {
            "CPU clock": f"{cpu.clock_ghz:.1f} GHz",
            "CPU cores": str(cpu.num_cores),
            "CPU threading": f"{cpu.threads_per_core}-way",
            "PCIe clock": f"{pcie.clock_mhz:.0f} MHz",
            "PCIe lanes": str(pcie.lanes),
            "PCIe burst": f"{pcie.burst_bytes // KIB} KB",
            "GPU clock": f"{gpu.clock_mhz:.0f} MHz",
            "GPU cores (SMs)": str(gpu.num_sms),
            "Memory bandwidth": f"{gpu.memory_bandwidth_gbps:.0f} GB/s",
            "Registers per SM": str(gpu.registers_per_sm),
            "Thread blocks per SM": str(gpu.max_thread_blocks_per_sm),
            "Threads per SM": str(gpu.max_threads_per_sm),
            "Shared memory per SM": shared,
        }


DEFAULT_SYSTEM_CONFIG = SystemConfig()
