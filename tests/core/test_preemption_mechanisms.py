"""Tests for the two preemption mechanisms (paper Sec. 3.2).

These are integration-style tests: a small system is built with a scheduling
policy that triggers preemptions (PPQ or DSS) and the behaviour of the
mechanism is observed through the engine's counts, the telemetry trace's
preemption latencies and the timing of the high-priority process.
"""

from __future__ import annotations

import pytest

from repro.core.preemption import (
    ContextSwitchMechanism,
    DrainingMechanism,
    PreemptionMechanism,
    make_mechanism,
)
from repro.system import GPUSystem
from repro.telemetry import preemption_latencies
from repro.trace.generator import TraceGenerator


def build_system(mechanism: str, *, low_blocks=5000, low_tb_time=100.0, high_blocks=52,
                 high_tb_time=5.0, policy: str = "ppq", trace: bool = False) -> GPUSystem:
    """One long low-priority kernel plus one short high-priority kernel."""
    generator = TraceGenerator()
    system = GPUSystem(policy=policy, mechanism=mechanism, trace=trace)
    low = generator.uniform_kernel(
        "low", num_blocks=low_blocks, tb_time_us=low_tb_time,
        registers_per_block=8192, cpu_time_us=1.0,
    )
    high = generator.uniform_kernel(
        "high", num_blocks=high_blocks, tb_time_us=high_tb_time,
        registers_per_block=8192, cpu_time_us=1.0,
    )
    system.add_process("low", low, priority=0, max_iterations=1)
    system.add_process("high", high, priority=10, start_delay_us=2000.0, max_iterations=1)
    return system


class TestFactory:
    def test_make_mechanism_names(self):
        assert isinstance(make_mechanism("context_switch"), ContextSwitchMechanism)
        assert isinstance(make_mechanism("context-switch"), ContextSwitchMechanism)
        assert isinstance(make_mechanism("cs"), ContextSwitchMechanism)
        assert isinstance(make_mechanism("draining"), DrainingMechanism)
        assert isinstance(make_mechanism("DRAIN"), DrainingMechanism)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            make_mechanism("magic")

    def test_unbound_mechanism_rejects_use(self):
        mechanism = ContextSwitchMechanism()
        with pytest.raises(RuntimeError):
            _ = mechanism.host


class TestContextSwitch:
    def test_preemption_saves_and_restores_thread_blocks(self):
        system = build_system("context_switch")
        system.run(max_events=5_000_000)
        engine = system.execution_engine
        assert engine.stats["preemptions_via.context_switch"] > 0
        # Context switching evicts resident blocks into the PTBQ...
        assert engine.stats["thread_blocks_evicted"] > 0
        # ...and the evicted blocks are re-issued later and complete: every
        # process finishes its full run.
        assert system.process("low").completed_iterations == 1
        assert system.process("high").completed_iterations == 1

    def test_preemption_latency_close_to_save_time(self):
        system = build_system("context_switch", trace=True)
        system.run(max_events=5_000_000)
        samples = preemption_latencies(system.telemetry.events)["context_switch"]
        config = system.config.gpu
        # 8192 registers/block x 4 B x 8 resident blocks over the per-SM
        # bandwidth share, plus the pipeline drain latency.
        expected_save = 8 * 8192 * 4 / config.per_sm_bandwidth_bytes_per_us
        assert samples
        mean = sum(samples) / len(samples)
        assert mean <= expected_save + config.pipeline_drain_latency_us + 1.0

    def test_restore_latency_positive(self):
        mechanism = ContextSwitchMechanism()
        system = GPUSystem(mechanism=mechanism, policy="fcfs")
        latency = mechanism.restore_latency_us(None, state_bytes_per_block=32768)
        assert latency == pytest.approx(32768 / system.config.gpu.per_sm_bandwidth_bytes_per_us)

    def test_high_priority_turnaround_shorter_than_draining(self):
        cs = build_system("context_switch")
        cs.run(max_events=5_000_000)
        drain = build_system("draining")
        drain.run(max_events=5_000_000)
        cs_time = cs.process("high").mean_iteration_time_us()
        drain_time = drain.process("high").mean_iteration_time_us()
        # The low-priority kernel has 100 us thread blocks but only ~10 us of
        # saveable state per SM, so the context switch frees SMs much sooner.
        assert cs_time < drain_time


class TestDraining:
    def test_draining_never_evicts_blocks(self):
        system = build_system("draining")
        system.run(max_events=5_000_000)
        engine = system.execution_engine
        assert engine.stats["thread_blocks_evicted"] == 0
        assert engine.stats["preemptions_completed"] > 0
        assert system.process("high").completed_iterations == 1

    def test_draining_restore_latency_is_zero(self):
        mechanism = DrainingMechanism()
        assert mechanism.restore_latency_us(None, state_bytes_per_block=1 << 20) == 0.0

    def test_draining_latency_bounded_by_block_execution_time(self):
        system = build_system("draining", trace=True)
        system.run(max_events=5_000_000)
        samples = preemption_latencies(system.telemetry.events)["draining"]
        assert samples
        # A reserved SM drains once its resident blocks (100 us each, started
        # at various times) finish: the latency can never exceed one block
        # execution time (with up to 15% jitter) plus the issue latency.
        assert max(samples) <= 100.0 * 1.15 + 1.0


class TestPersistentKernels:
    """The failure mode the paper warns about: draining cannot preempt
    persistent kernels, the context switch can."""

    @staticmethod
    def _persistent_system(mechanism: str) -> GPUSystem:
        generator = TraceGenerator()
        system = GPUSystem(policy="ppq", mechanism=mechanism)
        # 64 blocks at 4 blocks/SM occupy every SM of the 13-SM GPU.
        persistent = generator.persistent_kernel(
            "persistent", block_time_us=10_000_000.0, num_blocks=64
        )
        victim = generator.uniform_kernel(
            "victim", num_blocks=13, tb_time_us=10.0, registers_per_block=4096, cpu_time_us=1.0
        )
        system.add_process("persistent", persistent, priority=0, max_iterations=1)
        system.add_process("victim", victim, priority=10, start_delay_us=5000.0, max_iterations=1)
        return system

    def test_context_switch_preempts_persistent_kernel(self):
        system = self._persistent_system("context_switch")
        # Run for 1 simulated second: far less than the persistent blocks need.
        system.run(until_us=1_000_000.0, max_events=5_000_000)
        assert system.process("victim").completed_iterations == 1

    def test_draining_cannot_preempt_persistent_kernel(self):
        system = self._persistent_system("draining")
        system.run(until_us=1_000_000.0, max_events=5_000_000)
        assert system.process("victim").completed_iterations == 0


def test_mechanism_is_abstract():
    with pytest.raises(TypeError):
        PreemptionMechanism()  # type: ignore[abstract]
