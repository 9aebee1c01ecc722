"""Tests for the trace schema and the synthetic generator."""

from __future__ import annotations

import pytest

from repro.gpu.command_queue import TransferDirection
from repro.trace.generator import KernelPhase
from repro.trace.schema import (
    ApplicationTrace,
    CpuPhaseOp,
    DeviceSyncOp,
    KernelLaunchOp,
    MallocOp,
    MemcpyOp,
)
from repro.workloads.parboil import ParboilSuite


class TestSchemaValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            ApplicationTrace(name="x", kernels={}, operations=[KernelLaunchOp("missing")])

    def test_unknown_stream_rejected(self, trace_generator):
        trace = trace_generator.uniform_kernel("app")
        spec = next(iter(trace.kernels.values()))
        with pytest.raises(ValueError):
            ApplicationTrace(
                name="x", kernels={spec.name: spec},
                operations=[KernelLaunchOp(spec.name, stream=5)],
            )

    def test_negative_cpu_phase_rejected(self):
        with pytest.raises(ValueError):
            CpuPhaseOp(-1.0)

    def test_zero_size_memcpy_rejected(self):
        with pytest.raises(ValueError):
            MemcpyOp(0, TransferDirection.HOST_TO_DEVICE)

    def test_derived_quantities(self, trace_generator):
        trace = trace_generator.uniform_kernel("app", launches=3, cpu_time_us=7.0)
        assert trace.kernel_launch_count == 3
        assert trace.total_cpu_time_us > 3 * 7.0
        assert trace.total_transfer_bytes > 0
        assert trace.nominal_kernel_time_us() > 0


class TestGenerator:
    def test_uniform_kernel_structure(self, trace_generator):
        trace = trace_generator.uniform_kernel("demo", num_blocks=32, tb_time_us=5.0, launches=2)
        kinds = [type(op) for op in trace.operations]
        assert kinds[0] is CpuPhaseOp
        assert MallocOp in kinds
        assert kinds.count(KernelLaunchOp) == 2
        assert any(isinstance(op, DeviceSyncOp) for op in trace.operations)
        # Input transfer before the first launch, output transfer after the last.
        first_launch = kinds.index(KernelLaunchOp)
        assert any(isinstance(op, MemcpyOp) for op in trace.operations[:first_launch])
        assert isinstance(trace.operations[-2], MemcpyOp)

    def test_persistent_kernel_has_huge_blocks(self, trace_generator):
        trace = trace_generator.persistent_kernel(block_time_us=1e6, num_blocks=16)
        spec = next(iter(trace.kernels.values()))
        assert spec.avg_tb_time_us == 1e6
        assert spec.num_thread_blocks == 16

    def test_conflicting_kernel_names_rejected(self, trace_generator):
        suite = ParboilSuite()
        spec_a = suite.application("lbm").kernel_specs()["StreamCollide"]
        spec_b = suite.application("lbm").build_trace().kernels["StreamCollide"].scaled(0.5)
        with pytest.raises(ValueError):
            trace_generator.build(
                "x", phases=[KernelPhase(kernel=spec_a), KernelPhase(kernel=spec_b)]
            )

    def test_invalid_phase_rejected(self, trace_generator):
        suite = ParboilSuite()
        spec = suite.application("spmv").kernel_specs()["spmvjds"]
        with pytest.raises(ValueError):
            KernelPhase(kernel=spec, launches=0)


class TestScaling:
    def test_scaled_trace_preserves_per_block_times(self, trace_generator):
        trace = trace_generator.uniform_kernel("demo", num_blocks=64, tb_time_us=5.0, launches=4)
        scaled = trace.scaled(0.25, launch_scale=0.5)
        spec = next(iter(scaled.kernels.values()))
        assert spec.num_thread_blocks == 16
        assert spec.avg_tb_time_us == 5.0
        assert scaled.kernel_launch_count == 2

    def test_scaled_keeps_at_least_one_launch(self, trace_generator):
        trace = trace_generator.uniform_kernel("demo", launches=1)
        assert trace.scaled(0.1, launch_scale=0.1).kernel_launch_count == 1

    def test_invalid_launch_scale_rejected(self, trace_generator):
        trace = trace_generator.uniform_kernel("demo")
        with pytest.raises(ValueError):
            trace.scaled(0.5, launch_scale=0.0)

