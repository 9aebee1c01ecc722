"""Differential oracle: NPQ and PPQ decide exactly as a sort-and-scan reference.

The priority policies read the framework's incrementally kept policy order
and a kernel's assigned SMs.  The reference below recomputes everything per
scheduling tick instead: it rebuilds the list of active kernels with
issuable work, sorts it by (descending priority, activation time, KSR
index), sorts and walks every idle SM, and scans the whole SMST for victims.
Both are handed to ``GPUSystem(policy=...)`` as instances, and every run
must produce identical iteration times, end times and engine reports.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional

import pytest

from repro.core.framework.tables import KernelStatusEntry
from repro.core.policies import (
    NonPreemptivePriorityPolicy,
    PreemptivePriorityPolicy,
    SchedulingPolicy,
)
from repro.gpu.command_queue import KernelCommand
from repro.gpu.config import GPUConfig, SystemConfig
from repro.gpu.kernel import KernelSpec
from repro.gpu.resources import ResourceUsage
from repro.gpu.sm import SMState
from repro.system import GPUSystem
from repro.trace.generator import KernelPhase, TraceGenerator
from repro.workloads.large_gpu import generate_large_gpu_scenario
from repro.workloads.synthetic import SyntheticSuite


class ReferenceNPQ(SchedulingPolicy):
    """NPQ that sorts the active kernels and the idle SMs on every tick."""

    name = "npq"

    def on_command_buffered(self, command: KernelCommand) -> None:
        self._schedule()

    def on_kernel_finished(self, ksr_index: int, entry: KernelStatusEntry) -> None:
        self._schedule()

    def on_sm_idle(self, sm_id: int, previous_ksr_index: Optional[int]) -> None:
        self._schedule()

    def _schedule(self) -> None:
        self._admit()
        self._assign_idle_sms()

    def _admit(self) -> None:
        framework = self.framework
        while framework.has_active_capacity:
            pending = framework.pending_commands()
            if not pending:
                return
            pending.sort(
                key=lambda c: (
                    -c.priority,
                    c.enqueue_time_us if c.enqueue_time_us is not None else 0.0,
                    c.command_id,
                )
            )
            entry = self.engine.activate_command(pending[0])
            self.on_kernel_activated(entry)

    def _active_with_work(self) -> List[KernelStatusEntry]:
        framework = self.framework
        return [
            entry
            for entry in framework.active_entries()
            if framework.kernel_has_issuable_work(entry.index)
        ]

    def _priority_order(self, entries: List[KernelStatusEntry]) -> List[KernelStatusEntry]:
        return sorted(entries, key=lambda e: (-e.priority, e.activation_time_us, e.index))

    def _assignment_candidates(self) -> List[KernelStatusEntry]:
        return self._priority_order(self._active_with_work())

    def _assign_idle_sms(self) -> None:
        idle = self.framework.idle_sms()
        if not idle:
            return
        candidates = self._assignment_candidates()
        for sm_id in idle:
            target = None
            for entry in candidates:
                if self._wants_more_sms(entry):
                    target = entry
                    break
            if target is None:
                return
            self.engine.setup_sm(sm_id, target.index)


class ReferencePPQ(ReferenceNPQ):
    """PPQ that also scans the whole SMST for victims on every tick."""

    def __init__(self, *, exclusive_access: bool = True):
        super().__init__()
        self.exclusive_access = exclusive_access
        self.name = "ppq" if exclusive_access else "ppq_shared"

    def _schedule(self) -> None:
        self._admit()
        self._assign_idle_sms()
        self._enforce_priorities()

    def _assignment_candidates(self) -> List[KernelStatusEntry]:
        candidates = self._active_with_work()
        if not candidates:
            return []
        if self.exclusive_access:
            top_priority = max(entry.priority for entry in self.framework.active_entries())
            candidates = [e for e in candidates if e.priority >= top_priority]
        return self._priority_order(candidates)

    def _enforce_priorities(self) -> None:
        for entry in self._priority_order(self._active_with_work()):
            needed = (
                self._sms_needed(entry)
                - entry.num_assigned_sms
                - self._reserved_for(entry.index)
            )
            if needed <= 0:
                continue
            for sm_id in self._victim_sms(entry)[:needed]:
                self.engine.reserve_sm(sm_id, entry.index)

    def _victim_sms(self, beneficiary: KernelStatusEntry) -> List[int]:
        framework = self.framework
        victims = []
        for victim in framework.active_entries():
            if victim.priority >= beneficiary.priority:
                continue
            for sm_id in framework.smst.sms_for_ksr(victim.index, state=SMState.RUNNING):
                victims.append((victim.priority, -victim.activation_time_us, sm_id))
        victims.sort()
        return [sm_id for _, _, sm_id in victims]


#: Policy name -> (incremental policy factory, reference policy factory).
POLICIES = {
    "npq": (NonPreemptivePriorityPolicy, ReferenceNPQ),
    "ppq": (PreemptivePriorityPolicy, ReferencePPQ),
    "ppq_shared": (
        lambda: PreemptivePriorityPolicy(exclusive_access=False),
        lambda: ReferencePPQ(exclusive_access=False),
    ),
}


def _results(system: GPUSystem) -> str:
    report = system.execution_engine.utilization_snapshot()
    return json.dumps(
        {
            "report": report,
            "iteration_times_us": system.iteration_times_us(),
            "now": system.simulator.now,
        },
        sort_keys=True,
    )


def _both(build, policy: str):
    """Run ``build(policy_instance)`` under both policies; return both results."""
    incremental, reference = POLICIES[policy]
    outcomes = []
    for factory in (incremental, reference):
        system, limits = build(factory())
        system.run(**limits)
        outcomes.append((system, _results(system)))
    return outcomes


#: The preemption grid of the wave-equivalence tests: on 4 SMs a 16-block
#: priority-1 kernel arrives while a 12,000-block priority-0 grid runs.
PREEMPTION_GRID = [
    (mechanism, controller, start_us)
    for mechanism in ("draining", "context_switch")
    for controller in (None, "hybrid", "adaptive")
    for start_us in (3000.0, 3333.3, 4100.0, 4444.4)
]


@pytest.mark.parametrize("mechanism, controller, start_us", PREEMPTION_GRID)
def test_preemption_grid_matches_the_reference(mechanism, controller, start_us):
    def build(policy):
        config = SystemConfig(gpu=GPUConfig(num_sms=4), tb_time_cv=0.0)
        system = GPUSystem(config, policy=policy, mechanism=mechanism, controller=controller)
        generator = TraceGenerator()
        low = generator.uniform_kernel("l", num_blocks=12000, tb_time_us=10.0, blocks_per_sm=4)
        high = generator.uniform_kernel("h", num_blocks=16, tb_time_us=10.0, blocks_per_sm=4)
        system.add_process("L", low, max_iterations=1)
        system.add_process("H", high, priority=1, start_delay_us=start_us, max_iterations=1)
        return system, {}

    (system, mine), (_, reference) = _both(build, "ppq")
    assert system.execution_engine.stats["preemptions_completed"] >= 1
    assert mine == reference


def _mixed_priorities(policy, mechanism):
    """Five processes at three priorities, some starting together, on 6 SMs."""
    config = SystemConfig(gpu=GPUConfig(num_sms=6))
    system = GPUSystem(config, policy=policy, mechanism=mechanism, transfer_policy="npq")
    generator = TraceGenerator()
    shapes = [
        ("a", 0, 0.0, 400, 150.0),
        ("b", 0, 0.0, 200, 100.0),
        ("c", 1, 500.0, 60, 50.0),
        ("d", 2, 900.0, 30, 30.0),
        ("e", 1, 900.0, 90, 60.0),
    ]
    for name, priority, start, blocks, tb_time in shapes:
        trace = generator.uniform_kernel(
            name, num_blocks=blocks, tb_time_us=tb_time, launches=2, blocks_per_sm=4
        )
        system.add_process(
            name, trace, priority=priority, start_delay_us=start, max_iterations=3
        )
    return system, {"max_events": 2_000_000}


@pytest.mark.parametrize("mechanism", ["draining", "context_switch"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_mixed_priorities_match_the_reference(policy, mechanism):
    (system, mine), (_, reference) = _both(
        lambda instance: _mixed_priorities(instance, mechanism), policy
    )
    if policy != "npq":
        assert system.execution_engine.stats["preemptions_completed"] >= 1
    assert mine == reference


def _tied_activations(policy, mechanism):
    """Identical jitter-free processes that activate kernels at one instant.

    Without transfers, the three priority-0 processes buffer their kernels
    at one instant, so their kernels tie on priority and activation time
    and only the KSR index orders them.  The SMs that the priority-1
    kernel frees (preempted from them under PPQ) go to them in that order.
    """
    config = SystemConfig(gpu=GPUConfig(num_sms=4), tb_time_cv=0.0)
    system = GPUSystem(config, policy=policy, mechanism=mechanism)
    generator = TraceGenerator()

    def trace(name, blocks, tb_time_us):
        spec = KernelSpec(
            name=f"{name}_kernel", benchmark=name, num_thread_blocks=blocks,
            avg_tb_time_us=tb_time_us,
            usage=ResourceUsage(registers_per_block=8192, shared_memory_per_block=0),
            max_blocks_per_sm=4, launches_per_run=2,
        )
        phase = KernelPhase(kernel=spec, launches=2, cpu_time_us=10.0)
        return generator.build(name, phases=[phase], input_bytes=0, output_bytes=0)

    for name in ("p", "q", "r"):
        system.add_process(name, trace("low", 24, 20.0), max_iterations=3)
    system.add_process(
        "h", trace("high", 8, 10.0), priority=1, start_delay_us=150.0, max_iterations=3
    )
    return system, {"max_events": 1_000_000}


@pytest.mark.parametrize("mechanism", ["draining", "context_switch"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_tied_activations_match_the_reference(policy, mechanism):
    ties = []

    def build(instance):
        system, limits = _tied_activations(instance, mechanism)
        framework = system.execution_engine.framework
        real = framework.activate_command

        def activate(command, **kwargs):
            entry = real(command, **kwargs)
            ties.extend(
                other
                for other in framework.active_entries()
                if other is not entry
                and other.priority == entry.priority
                and other.activation_time_us == entry.activation_time_us
            )
            return entry

        framework.activate_command = activate
        return system, limits

    (system, mine), (_, reference) = _both(build, policy)
    assert ties, "no two active kernels tied on priority and activation time"
    assert mine == reference


def _closed_loop(scenario, policy):
    """``GPUSystem.from_scenario`` with a policy instance in place of the name."""
    scale = scenario.workload_scale()
    suite = SyntheticSuite(scale)
    scheme = scenario.scheme
    system = GPUSystem(
        scale.scale_config(scenario.system_config()),
        policy=policy,
        mechanism=scheme.mechanism,
        controller=scheme.controller,
        transfer_policy=scheme.transfer_policy,
    )
    for slot, (app, name) in enumerate(zip(scenario.applications, scenario.process_names())):
        priority = (
            scenario.high_priority
            if slot == scenario.high_priority_index
            else scenario.normal_priority
        )
        system.add_process(
            name, suite.trace(app), priority=priority,
            start_delay_us=scenario.start_stagger_us * slot,
        )
    limits = dict(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    return system, limits


LARGE_GPU_CASES = [
    ("ppq", "context_switch", None),
    ("ppq", "context_switch", 1),
    ("ppq", "draining", 2),
    ("ppq_shared", "context_switch", 0),
    ("npq", "draining", 3),
]


@pytest.mark.parametrize("policy, mechanism, high_priority_index", LARGE_GPU_CASES)
def test_large_gpu_closed_loops_match_the_reference(policy, mechanism, high_priority_index):
    scenario = generate_large_gpu_scenario(8)
    scenario = dataclasses.replace(
        scenario,
        scheme=dataclasses.replace(scenario.scheme, mechanism=mechanism),
        high_priority_index=high_priority_index,
    )
    (system, mine), (_, reference) = _both(
        lambda instance: _closed_loop(scenario, instance), policy
    )
    assert mine == reference


def test_the_closed_loop_helper_builds_what_from_scenario_builds():
    scenario = generate_large_gpu_scenario(8)
    system, limits = _closed_loop(scenario, PreemptivePriorityPolicy())
    system.run(**limits)
    built = GPUSystem.from_scenario(scenario)
    built.run(**limits)
    assert _results(system) == _results(built)
