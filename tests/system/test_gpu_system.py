"""End-to-end tests of the GPUSystem facade."""

from __future__ import annotations

import pytest

from repro.core.policies import FCFSPolicy
from repro.core.preemption import DrainingMechanism
from repro.memory.transfer_engine import TransferSchedulingPolicy
from repro.system import GPUSystem, run_isolated
from repro.trace.generator import TraceGenerator


@pytest.fixture
def demo_trace(trace_generator):
    return trace_generator.uniform_kernel("demo", num_blocks=52, tb_time_us=5.0, launches=2)


class TestConstruction:
    def test_string_configuration(self):
        system = GPUSystem(policy="dss", mechanism="draining", transfer_policy="npq",
                           policy_options={"process_count": 4})
        assert system.policy.name == "dss"
        assert system.mechanism.name == "draining"
        assert system.transfer_engine.policy is TransferSchedulingPolicy.PRIORITY

    def test_object_configuration(self):
        system = GPUSystem(policy=FCFSPolicy(), mechanism=DrainingMechanism())
        assert system.policy.name == "fcfs"
        assert system.mechanism.name == "draining"

    def test_removed_queue_option_is_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'queue'"):
            GPUSystem(policy="fcfs", queue="heap")

    def test_policy_options_only_with_names(self):
        with pytest.raises(ValueError):
            GPUSystem(policy=FCFSPolicy(), policy_options={"x": 1})

    def test_duplicate_process_names_rejected(self, demo_trace):
        system = GPUSystem()
        system.add_process("p", demo_trace)
        with pytest.raises(ValueError):
            system.add_process("p", demo_trace)

    def test_process_lookup(self, demo_trace):
        system = GPUSystem()
        process = system.add_process("p", demo_trace)
        assert system.process("p") is process
        with pytest.raises(KeyError):
            system.process("missing")


class TestExecution:
    def test_single_process_run(self, demo_trace):
        system = GPUSystem()
        process = system.add_process("demo", demo_trace, max_iterations=1)
        system.run(max_events=1_000_000)
        assert process.completed_iterations == 1
        times = system.mean_iteration_times_us()
        assert times["demo"] > 0

    def test_stop_after_min_iterations(self, demo_trace):
        system = GPUSystem()
        a = system.add_process("a", demo_trace)
        b = system.add_process("b", demo_trace)
        system.run(stop_after_min_iterations=2, max_events=5_000_000)
        assert a.completed_iterations >= 2
        assert b.completed_iterations >= 2

    def test_iteration_times_listing(self, demo_trace):
        system = GPUSystem()
        system.add_process("demo", demo_trace, max_iterations=2)
        system.run(max_events=2_000_000)
        times = system.iteration_times_us()["demo"]
        assert len(times) == 2
        assert all(t > 0 for t in times)

    def test_run_isolated_helper(self, demo_trace):
        time_us = run_isolated(demo_trace)
        assert time_us > 0

    def test_isolated_time_is_deterministic(self, demo_trace):
        assert run_isolated(demo_trace) == pytest.approx(run_isolated(demo_trace))

    def test_kernel_work_conservation(self, demo_trace):
        """Every launched thread block executes exactly once."""
        system = GPUSystem(policy="dss", mechanism="context_switch",
                           policy_options={"process_count": 2})
        system.add_process("a", demo_trace, max_iterations=1)
        system.add_process("b", demo_trace, max_iterations=1)
        system.run(max_events=5_000_000)
        engine = system.execution_engine
        launched_blocks = sum(
            launch.spec.num_thread_blocks for launch in engine.completed_launches
        )
        executed = sum(sm.blocks_executed for sm in engine.sms())
        assert launched_blocks == executed
        # 2 processes x 2 launches x 52 blocks.
        assert launched_blocks == 2 * 2 * 52

    def test_isolation_across_processes(self, demo_trace):
        """Concurrent processes never map the same physical frame."""
        system = GPUSystem(policy="dss", policy_options={"process_count": 2})
        system.add_process("a", demo_trace, max_iterations=1)
        system.add_process("b", demo_trace, max_iterations=1)
        system.run(max_events=5_000_000)
        # The allocator's frame-owner map never holds a frame owned by two
        # contexts (keys are unique); verify the address spaces never shared
        # pages by checking allocations were all released exactly once.
        assert system.dram.allocated_bytes == 0


class TestPolicyDifferentiation:
    def test_priority_changes_outcomes(self, trace_generator):
        long_trace = trace_generator.uniform_kernel(
            "long", num_blocks=3000, tb_time_us=200.0, registers_per_block=8192,
        )
        short_trace = trace_generator.uniform_kernel(
            "short", num_blocks=26, tb_time_us=10.0, registers_per_block=8192,
        )

        def run(policy: str) -> float:
            system = GPUSystem(policy=policy, transfer_policy="npq")
            system.add_process("long", long_trace, priority=0, max_iterations=1)
            system.add_process("short", short_trace, priority=10,
                               start_delay_us=3000.0, max_iterations=1)
            system.run(max_events=5_000_000)
            return system.process("short").mean_iteration_time_us()

        fcfs_time = run("fcfs")
        ppq_time = run("ppq")
        assert ppq_time < fcfs_time
