"""The Parboil benchmark models (paper Table 1).

The paper evaluates ten of the eleven Parboil benchmarks (BFS is excluded
because its global synchronisation cannot be modelled by the trace-driven
infrastructure).  Table 1 publishes, for every kernel: the number of
launches, the kernel execution time, the number of thread blocks, the average
thread-block execution time, per-block shared-memory and register usage, the
maximum number of concurrent thread blocks per SM, the fraction of on-chip
storage used and the projected context-save time.  Those rows are encoded
verbatim in :data:`TABLE1_RECORDS`.

What Table 1 does **not** publish is the CPU-phase durations and transfer
sizes of each application.  We synthesise them (documented per application in
:data:`_APP_PROFILES`) so that each application keeps its published Class-2
placement (SHORT / MEDIUM / LONG total run time) relative to the others.  See
DESIGN.md section 3 for the full substitution rationale.

Timescale note
--------------
Table 1's "Time/TB" column equals ``kernel time x TBs-per-SM / num TBs``,
i.e. it does not divide by the 13 SMs that execute concurrently.  The paper's
preemption-latency analysis (Sec. 4.2) uses this column directly as the
thread-block execution time, so we do the same: the per-block execution time
in the model is the published Time/TB value.  As a consequence the simulated
kernel durations are ~13x shorter than the published wall-clock kernel times;
the synthesised CPU and transfer times are chosen on the same compressed
timescale, so every application keeps its relative length and its
compute/transfer balance.  All evaluation metrics are ratios, so this uniform
compression does not change the shape of the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.command_queue import TransferDirection
from repro.gpu.kernel import KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.trace.schema import (
    ApplicationTrace,
    CpuPhaseOp,
    DeviceSyncOp,
    KernelLaunchOp,
    MallocOp,
    MemcpyOp,
    TraceOp,
)
from repro.workloads.scale import WorkloadScale

KIB = 1024
MIB = 1024 * KIB

#: Class-1 grouping (by kernel execution time) used in Figure 5.
CLASS1_SHORT = "SHORT"
CLASS1_MEDIUM = "MEDIUM"
CLASS1_LONG = "LONG"


@dataclass(frozen=True)
class KernelRecord:
    """One row of Table 1."""

    benchmark: str
    kernel: str
    launches: int
    kernel_time_us: float
    num_thread_blocks: int
    tb_time_us: float
    shared_mem_per_tb: int
    regs_per_tb: int
    tbs_per_sm: int
    resource_pct: float
    save_time_us: float

    @property
    def qualified_name(self) -> str:
        """``benchmark.kernel`` identifier."""
        return f"{self.benchmark}.{self.kernel}"

    def threads_per_block(self) -> int:
        """Synthetic threads-per-block consistent with the measured occupancy.

        The real block sizes are not published; this choice guarantees the
        2048-threads-per-SM limit never constrains occupancy below the
        measured TBs/SM value.
        """
        return max(32, min(1024, 2048 // self.tbs_per_sm))

    def to_kernel_spec(self, *, tb_scale: float = 1.0) -> KernelSpec:
        """Build the simulator's kernel spec for this row."""
        blocks = max(1, round(self.num_thread_blocks * tb_scale))
        return KernelSpec(
            name=self.kernel,
            benchmark=self.benchmark,
            num_thread_blocks=blocks,
            avg_tb_time_us=self.tb_time_us,
            usage=ResourceUsage(
                registers_per_block=self.regs_per_tb,
                shared_memory_per_block=self.shared_mem_per_tb,
                threads_per_block=self.threads_per_block(),
            ),
            max_blocks_per_sm=self.tbs_per_sm,
            measured_kernel_time_us=self.kernel_time_us,
            launches_per_run=self.launches,
        )


#: Table 1, verbatim (times in microseconds, sizes in bytes).
TABLE1_RECORDS: Tuple[KernelRecord, ...] = (
    KernelRecord("lbm", "StreamCollide", 100, 2905.81, 18000, 2.42, 0, 4320, 15, 83.26, 16.20),
    KernelRecord("histo", "final", 20, 70.24, 42, 5.02, 0, 19456, 3, 75.00, 14.59),
    KernelRecord("histo", "prescan", 20, 20.87, 64, 1.30, 4096, 9216, 4, 52.63, 10.24),
    KernelRecord("histo", "intermediates", 20, 77.88, 65, 4.79, 0, 8964, 4, 46.07, 8.96),
    KernelRecord("histo", "main", 20, 372.58, 84, 4.44, 24576, 16896, 1, 29.61, 5.76),
    KernelRecord("tpacf", "genhists", 1, 14615.33, 201, 72.71, 13312, 7680, 1, 14.14, 2.75),
    KernelRecord("spmv", "spmvjds", 50, 42.38, 374, 1.81, 0, 928, 16, 19.08, 3.71),
    KernelRecord("mri-q", "ComputeQ", 2, 3389.71, 1024, 26.48, 0, 5376, 8, 55.26, 10.75),
    KernelRecord("mri-q", "ComputePhiMag", 1, 4.70, 4, 4.70, 0, 6144, 4, 31.58, 6.14),
    KernelRecord("sad", "largersadcalc8", 1, 8174.21, 8040, 16.27, 0, 3328, 16, 68.42, 13.31),
    KernelRecord("sad", "largersadcalc16", 1, 1529.38, 8040, 3.04, 0, 832, 16, 17.11, 3.33),
    KernelRecord("sad", "mbsadcalc", 1, 15446.02, 128640, 0.84, 2224, 2135, 7, 24.20, 4.71),
    KernelRecord("sgemm", "mysgemmNT", 1, 3717.18, 528, 98.56, 512, 4480, 14, 82.89, 16.13),
    KernelRecord("stencil", "block2Dregtiling", 100, 2227.30, 256, 8.70, 0, 41984, 1, 53.95, 10.50),
    KernelRecord("cutcp", "lattice6overlap", 11, 1520.11, 121, 37.69, 4116, 3328, 3, 16.80, 3.27),
    KernelRecord("mri-gridding", "binning", 1, 2021.41, 5188, 1.56, 0, 4096, 4, 21.05, 4.10),
    KernelRecord("mri-gridding", "scaninter1", 9, 7.59, 29, 4.14, 665, 1173, 16, 27.54, 5.36),
    KernelRecord("mri-gridding", "scanL1", 8, 826.12, 2084, 1.19, 4368, 9216, 3, 39.74, 7.73),
    KernelRecord("mri-gridding", "uniformAdd", 8, 127.30, 2084, 0.24, 16, 4096, 4, 21.07, 4.10),
    KernelRecord("mri-gridding", "reorder", 1, 2535.30, 5188, 1.95, 0, 8192, 4, 42.11, 8.19),
    KernelRecord("mri-gridding", "splitSort", 7, 3838.84, 2594, 4.44, 4484, 10240, 3, 43.79, 8.52),
    KernelRecord("mri-gridding", "griddingGPU", 1, 208398.47, 65536, 31.80, 1536, 3648, 10, 51.81, 10.08),
    KernelRecord("mri-gridding", "splitRearrange", 7, 1622.93, 2594, 1.88, 4160, 5888, 3, 26.71, 5.20),
    KernelRecord("mri-gridding", "scaninter2", 9, 8.81, 29, 4.80, 665, 1173, 16, 27.54, 5.36),
)

#: Datasets the paper traced each benchmark with (Table 1, square brackets).
DATASETS: Dict[str, str] = {
    "lbm": "short",
    "histo": "default",
    "tpacf": "small",
    "spmv": "medium",
    "mri-q": "large",
    "sad": "large",
    "sgemm": "medium",
    "stencil": "default",
    "cutcp": "small",
    "mri-gridding": "small",
}

#: Class 1 (by kernel execution time) and Class 2 (by application execution
#: time) groupings from Table 1.
CLASS1: Dict[str, str] = {
    "lbm": "MEDIUM",
    "histo": "SHORT",
    "tpacf": "LONG",
    "spmv": "SHORT",
    "mri-q": "MEDIUM",
    "sad": "LONG",
    "sgemm": "MEDIUM",
    "stencil": "MEDIUM",
    "cutcp": "MEDIUM",
    "mri-gridding": "LONG",
}

CLASS2: Dict[str, str] = {
    "lbm": "LONG",
    "histo": "MEDIUM",
    "tpacf": "MEDIUM",
    "spmv": "SHORT",
    "mri-q": "SHORT",
    "sad": "LONG",
    "sgemm": "SHORT",
    "stencil": "LONG",
    "cutcp": "MEDIUM",
    "mri-gridding": "LONG",
}

BENCHMARK_NAMES: Tuple[str, ...] = tuple(CLASS1.keys())


@dataclass(frozen=True)
class _AppProfile:
    """Synthesised host-side profile of one application (not in Table 1).

    CPU-phase durations and transfer sizes are chosen so that each
    application's total isolated run time keeps its published Class-2
    placement on the compressed timescale (see the module docstring).
    """

    setup_cpu_us: float
    per_launch_cpu_us: float
    teardown_cpu_us: float
    input_bytes: int
    output_bytes: int


_APP_PROFILES: Dict[str, _AppProfile] = {
    "lbm": _AppProfile(2000.0, 60.0, 1000.0, 4 * MIB, 4 * MIB),
    "stencil": _AppProfile(1500.0, 80.0, 800.0, 3 * MIB, 3 * MIB),
    "sad": _AppProfile(6000.0, 500.0, 12000.0, 8 * MIB, 12 * MIB),
    "mri-gridding": _AppProfile(3000.0, 30.0, 2000.0, 6 * MIB, 6 * MIB),
    "histo": _AppProfile(400.0, 10.0, 300.0, 2 * MIB, 1 * MIB),
    "tpacf": _AppProfile(800.0, 200.0, 400.0, 1 * MIB, 256 * KIB),
    "cutcp": _AppProfile(500.0, 40.0, 300.0, 1 * MIB, 1 * MIB),
    "spmv": _AppProfile(20.0, 1.0, 10.0, 96 * KIB, 32 * KIB),
    "mri-q": _AppProfile(50.0, 20.0, 30.0, 512 * KIB, 256 * KIB),
    "sgemm": _AppProfile(40.0, 30.0, 30.0, 768 * KIB, 256 * KIB),
}


@dataclass(frozen=True)
class ParboilApplication:
    """One Parboil benchmark: its Table 1 rows plus the synthesised profile."""

    name: str
    records: Tuple[KernelRecord, ...]
    profile: _AppProfile

    @property
    def dataset(self) -> str:
        """The input dataset the paper traced the benchmark with."""
        return DATASETS[self.name]

    @property
    def kernel_class(self) -> str:
        """Class-1 grouping (Figure 5)."""
        return CLASS1[self.name]

    @property
    def application_class(self) -> str:
        """Class-2 grouping (Figure 7a)."""
        return CLASS2[self.name]

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def kernel_specs(self, *, tb_scale: float = 1.0) -> Dict[str, KernelSpec]:
        """Kernel specs keyed by kernel name."""
        return {r.kernel: r.to_kernel_spec(tb_scale=tb_scale) for r in self.records}

    # ------------------------------------------------------------------
    # Trace construction
    # ------------------------------------------------------------------
    def build_trace(self, scale: Optional[WorkloadScale] = None) -> ApplicationTrace:
        """Build the application trace at the requested scale.

        The trace follows the typical structure of a Parboil application
        (paper Sec. 2.1): setup CPU work, input transfers to the device,
        repeated rounds of (CPU phase, kernel launch, synchronisation) —
        kernels that are launched multiple times are interleaved round-robin,
        mirroring the iterative structure of the originals — and finally the
        output transfer back to the host.
        """
        scale = scale if scale is not None else WorkloadScale.full()
        tb_scale = scale.tb_scale
        launch_scale = scale.launch_scale
        kernels = self.kernel_specs(tb_scale=tb_scale)
        profile = self.profile

        # Host-side time and transfer sizes scale with the thread-block scale
        # so the compute/transfer balance of the application is preserved.
        host_scale = tb_scale * launch_scale

        operations: List[TraceOp] = []
        operations.append(CpuPhaseOp(max(1.0, profile.setup_cpu_us * host_scale)))
        input_bytes = max(4 * KIB, int(profile.input_bytes * host_scale))
        output_bytes = max(4 * KIB, int(profile.output_bytes * host_scale))
        operations.append(MallocOp(input_bytes, label="input"))
        operations.append(MallocOp(output_bytes, label="output"))
        operations.append(MemcpyOp(input_bytes, TransferDirection.HOST_TO_DEVICE))

        scaled_launches = {
            r.kernel: max(1, round(r.launches * launch_scale)) for r in self.records
        }
        remaining = dict(scaled_launches)
        rounds = max(remaining.values())
        per_launch_cpu = max(0.5, profile.per_launch_cpu_us * tb_scale)
        for _ in range(rounds):
            for record in self.records:
                if remaining[record.kernel] <= 0:
                    continue
                remaining[record.kernel] -= 1
                operations.append(CpuPhaseOp(per_launch_cpu))
                operations.append(KernelLaunchOp(record.kernel))
            operations.append(DeviceSyncOp())

        operations.append(MemcpyOp(output_bytes, TransferDirection.DEVICE_TO_HOST))
        operations.append(CpuPhaseOp(max(1.0, profile.teardown_cpu_us * host_scale)))

        return ApplicationTrace(
            name=self.name,
            kernels=kernels,
            operations=operations,
            streams=(0,),
            kernel_class=self.kernel_class,
            application_class=self.application_class,
        )


class ParboilSuite:
    """The ten-application Parboil suite used in the paper's evaluation."""

    def __init__(self, scale: Optional[WorkloadScale] = None):
        self.scale = scale if scale is not None else WorkloadScale.full()
        self._applications: Dict[str, ParboilApplication] = {}
        for name in BENCHMARK_NAMES:
            records = tuple(r for r in TABLE1_RECORDS if r.benchmark == name)
            self._applications[name] = ParboilApplication(
                name=name, records=records, profile=_APP_PROFILES[name]
            )
        self._trace_cache: Dict[str, ApplicationTrace] = {}

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> Sequence[str]:
        """Benchmark names, in Table 1 order."""
        return list(BENCHMARK_NAMES)

    def application(self, name: str) -> ParboilApplication:
        """Look up one application model by name."""
        try:
            return self._applications[name]
        except KeyError as exc:
            raise KeyError(f"unknown Parboil benchmark {name!r}") from exc

    def applications(self) -> List[ParboilApplication]:
        """All application models."""
        return [self._applications[name] for name in BENCHMARK_NAMES]

    def trace(self, name: str) -> ApplicationTrace:
        """The (cached) application trace of ``name`` at the suite's scale."""
        if name not in self._trace_cache:
            self._trace_cache[name] = self.application(name).build_trace(self.scale)
        return self._trace_cache[name]

    def by_kernel_class(self, kernel_class: str) -> List[str]:
        """Benchmarks whose Class-1 label matches ``kernel_class``."""
        return [name for name in BENCHMARK_NAMES if CLASS1[name] == kernel_class.upper()]

    def by_application_class(self, application_class: str) -> List[str]:
        """Benchmarks whose Class-2 label matches ``application_class``."""
        return [name for name in BENCHMARK_NAMES if CLASS2[name] == application_class.upper()]

    def records(self, name: Optional[str] = None) -> List[KernelRecord]:
        """Table 1 rows, optionally filtered to one benchmark."""
        if name is None:
            return list(TABLE1_RECORDS)
        return [r for r in TABLE1_RECORDS if r.benchmark == name]
