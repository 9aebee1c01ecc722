"""Tests for the scheduling policies (FCFS, NPQ, PPQ, DSS)."""

from __future__ import annotations

import pytest

from repro.core.policies import (
    DynamicSpatialSharingPolicy,
    FCFSPolicy,
    NonPreemptivePriorityPolicy,
    PreemptivePriorityPolicy,
    make_policy,
)
from repro.system import GPUSystem
from repro.trace.generator import TraceGenerator


def two_process_system(policy, *, mechanism="context_switch", policy_options=None,
                       long_blocks=3000, short_blocks=26) -> GPUSystem:
    """A long low-priority application plus a short high-priority one."""
    generator = TraceGenerator()
    system = GPUSystem(policy=policy, mechanism=mechanism, policy_options=policy_options)
    # The long kernel's thread blocks are 200 us each so the kernel is still
    # occupying the GPU when the short process's kernel arrives (its input
    # transfer alone takes ~2.6 ms on the PCIe model).
    long_trace = generator.uniform_kernel(
        "long", num_blocks=long_blocks, tb_time_us=200.0, registers_per_block=8192,
        cpu_time_us=1.0,
    )
    short_trace = generator.uniform_kernel(
        "short", num_blocks=short_blocks, tb_time_us=10.0, registers_per_block=8192,
        cpu_time_us=1.0,
    )
    system.add_process("long", long_trace, priority=0, max_iterations=1)
    system.add_process("short", short_trace, priority=10, start_delay_us=3000.0,
                       max_iterations=1)
    return system


def run_and_time(policy, **kwargs):
    system = two_process_system(policy, **kwargs)
    system.run(max_events=5_000_000)
    assert system.process("long").completed_iterations == 1
    assert system.process("short").completed_iterations == 1
    return system


class TestFactory:
    def test_known_policies(self):
        assert isinstance(make_policy("fcfs"), FCFSPolicy)
        assert isinstance(make_policy("npq"), NonPreemptivePriorityPolicy)
        assert isinstance(make_policy("ppq"), PreemptivePriorityPolicy)
        assert isinstance(make_policy("dss"), DynamicSpatialSharingPolicy)

    def test_ppq_variants(self):
        exclusive = make_policy("ppq")
        shared = make_policy("ppq_shared")
        assert exclusive.exclusive_access is True
        assert shared.exclusive_access is False
        assert exclusive.name == "ppq"
        assert shared.name == "ppq_shared"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("round-robin")

    def test_unbound_policy_rejects_use(self):
        with pytest.raises(RuntimeError):
            _ = FCFSPolicy().engine


class TestFCFS:
    def test_no_preemption_under_fcfs(self):
        system = run_and_time("fcfs")
        assert system.execution_engine.stats["sm_reservations"] == 0

    def test_engine_report_lists_only_counted_events(self):
        # A count enters the report once it is counted: a run that never
        # preempts reports no reservation, preemption or eviction keys.
        snapshot = run_and_time("fcfs").execution_engine.utilization_snapshot()
        assert snapshot["kernels_completed"] == 2.0
        assert not [
            key for key in snapshot
            if key.startswith(("sm_reservations", "preemptions", "thread_blocks_evicted"))
        ]

    def test_contexts_never_share_the_execution_engine(self):
        system = two_process_system("fcfs")
        engine = system.execution_engine
        violations = []

        def check():
            contexts = {
                sm.context_id_register for sm in engine.sms() if not sm.is_empty
            }
            if len(contexts) > 1:
                violations.append(contexts)
            if system.simulator.pending_events:
                system.simulator.schedule(50.0, check)

        system.simulator.schedule(1.0, check)
        system.run(max_events=5_000_000)
        assert violations == []

    def test_short_process_waits_behind_long_kernel(self):
        fcfs = run_and_time("fcfs")
        ppq = run_and_time("ppq")
        fcfs_short = fcfs.process("short").mean_iteration_time_us()
        ppq_short = ppq.process("short").mean_iteration_time_us()
        assert fcfs_short > ppq_short


class TestPriorityPolicies:
    def test_npq_does_not_preempt(self):
        system = run_and_time("npq")
        assert system.execution_engine.stats["sm_reservations"] == 0

    def test_ppq_preempts_lower_priority_kernels(self):
        system = run_and_time("ppq")
        engine = system.execution_engine
        assert engine.stats["sm_reservations"] > 0
        assert engine.stats["preemptions_completed"] > 0

    def test_ppq_helps_high_priority_over_npq(self):
        npq = run_and_time("npq")
        ppq = run_and_time("ppq")
        assert (
            ppq.process("short").mean_iteration_time_us()
            < npq.process("short").mean_iteration_time_us()
        )

    def test_priority_ordering_respected_across_policies(self):
        # The low-priority (long) process should never be *helped* by
        # prioritisation of the other process.
        fcfs = run_and_time("fcfs")
        ppq = run_and_time("ppq")
        assert (
            ppq.process("long").mean_iteration_time_us()
            >= fcfs.process("long").mean_iteration_time_us() * 0.99
        )

    def test_shared_access_variant_runs(self):
        system = run_and_time("ppq_shared")
        assert system.execution_engine.policy.name == "ppq_shared"


class TestDSS:
    def test_equal_share_budgets(self):
        system = two_process_system("dss", policy_options={"process_count": 4})
        system.run(max_events=5_000_000)
        policy = system.execution_engine.policy
        budgets = policy.assigned_budgets()
        # 13 SMs across 4 processes: floor = 3, remainder 1 -> first context
        # to activate gets 4 tokens.
        assert sorted(budgets.values(), reverse=True)[:2] == [4, 3]

    def test_explicit_budgets_override_equal_share(self):
        system = two_process_system(
            "dss", policy_options={"token_budgets": {"long": 3, "short": 10}}
        )
        system.run(max_events=5_000_000)
        budgets = system.execution_engine.policy.assigned_budgets()
        assert set(budgets.values()) == {3, 10}

    def test_dss_preempts_to_rebalance(self):
        system = run_and_time("dss", policy_options={"process_count": 2})
        assert system.execution_engine.stats["sm_reservations"] > 0

    def test_dss_improves_short_process_over_fcfs(self):
        fcfs = run_and_time("fcfs")
        dss = run_and_time("dss", policy_options={"process_count": 2})
        assert (
            dss.process("short").mean_iteration_time_us()
            < fcfs.process("short").mean_iteration_time_us()
        )

    def test_invalid_process_count_rejected(self):
        with pytest.raises(ValueError):
            DynamicSpatialSharingPolicy(process_count=0)

    def test_both_mechanisms_supported(self):
        for mechanism in ("context_switch", "draining"):
            system = run_and_time("dss", mechanism=mechanism,
                                  policy_options={"process_count": 2})
            assert system.execution_engine.mechanism.name in ("context_switch", "draining")
