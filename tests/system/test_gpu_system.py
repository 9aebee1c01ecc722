"""End-to-end tests of the GPUSystem facade."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core.policies import FCFSPolicy
from repro.core.preemption import DrainingMechanism
from repro.gpu.kernel import KernelLaunch
from repro.gpu.sm import StreamingMultiprocessor
from repro.memory.transfer_engine import TransferSchedulingPolicy
from repro.obs import EventLoopProfiler
from repro.sim.observers import BaseObserver
from repro.system import GPUSystem, run_isolated
from repro.trace.generator import TraceGenerator
from repro.workloads.large_gpu import generate_large_gpu_scenario


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

        class FinishedBlocks(BaseObserver):
            total = 0

            def on_kernel_finished(self, launch) -> None:
                self.total += launch.spec.num_thread_blocks

        system = GPUSystem(policy="dss", mechanism="context_switch",
                           policy_options={"process_count": 2})
        finished = FinishedBlocks()
        system.install_observer(finished)
        system.add_process("a", demo_trace, max_iterations=1)
        system.add_process("b", demo_trace, max_iterations=1)
        system.run(max_events=5_000_000)
        launched_blocks = finished.total
        executed = sum(sm.blocks_executed for sm in system.execution_engine.sms())
        assert launched_blocks == executed
        # 2 processes x 2 launches x 52 blocks.
        assert launched_blocks == 2 * 2 * 52

    @pytest.mark.parametrize("launches", [2, 8])
    def test_finished_launches_are_not_retained(self, trace_generator, launches):
        """Memory stays flat in run length: no finished launch outlives its kernel."""
        trace = trace_generator.uniform_kernel(
            "demo", num_blocks=52, tb_time_us=5.0, launches=launches
        )
        system = GPUSystem(policy="dss", mechanism="context_switch",
                           policy_options={"process_count": 2})
        names = {f"retention{launches}-a", f"retention{launches}-b"}
        for name in sorted(names):
            system.add_process(name, trace, max_iterations=1)
        system.run(max_events=5_000_000)
        assert system.execution_engine.stats["kernels_completed"] == 2 * launches
        gc.collect()
        live = [
            obj for obj in gc.get_objects()
            if isinstance(obj, KernelLaunch) and obj.process_name in names
        ]
        assert live == []

    def test_issued_blocks_are_not_retained_by_their_launch(self, trace_generator):
        """Peak memory of one jittered 20,000-block kernel stays near one SM
        wave of blocks: a launch keeping every block it issued until it
        finishes peaks above 6 MiB here."""
        system = GPUSystem()
        trace = trace_generator.uniform_kernel("big", num_blocks=20_000, tb_time_us=5.0)
        system.add_process("big", trace, max_iterations=1)
        tracemalloc.start()
        try:
            system.run(max_events=5_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.process("big").completed_iterations == 1
        assert peak < 4 * 2**20

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


def _large_gpu_8sm():
    scenario = generate_large_gpu_scenario(8)
    limits = dict(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    return GPUSystem.from_scenario(scenario), limits


def _run_results(system):
    return (
        system.execution_engine.utilization_snapshot(),
        system.iteration_times_us(),
        system.simulator.now,
        system.simulator.events_processed,
    )


class TestResume:
    def test_run_after_the_min_iterations_stop_fires_no_event(self):
        system, limits = _large_gpu_8sm()
        system.run(**limits)
        stopped = _run_results(system)
        assert stopped[2] == pytest.approx(1204.84, abs=0.01)
        assert stopped[3] == 345
        # The stopped processes still have kernels in flight; a second call
        # must not drain them (it used to end at 1435.30 us after 351 events).
        system.run(**limits)
        assert _run_results(system) == stopped

    def test_run_split_before_the_stop_ends_like_the_whole_run(self):
        whole, limits = _large_gpu_8sm()
        whole.run(**limits)
        split, _ = _large_gpu_8sm()
        split.run(until_us=500.0, **limits)
        assert split.simulator.now == 500.0
        split.run(**limits)
        assert _run_results(split) == _run_results(whole)


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


class TestObserverWiring:
    def test_event_only_observer_receives_simulator_events(self, demo_trace):
        class FiredEvents(BaseObserver):
            fired = 0

            def on_event_fired(self, event, previous_now) -> None:
                self.fired += 1

        system = GPUSystem(policy="fcfs")
        observer = FiredEvents()
        system.install_observer(observer)
        assert system.simulator.observer is observer
        system.add_process("a", demo_trace, max_iterations=1)
        system.run(max_events=5_000_000)
        assert observer.fired == system.simulator.events_processed > 0

    def test_lone_duck_typed_observer_needs_only_its_own_hooks(self, demo_trace):
        class FiredEvents:  # not a BaseObserver: no inherited no-op hooks
            fired = 0

            def on_event_fired(self, event, previous_now) -> None:
                self.fired += 1

        system = GPUSystem(policy="fcfs")
        observer = FiredEvents()
        system.install_observer(observer)
        system.add_process("a", demo_trace, max_iterations=1)
        system.run(max_events=5_000_000)
        assert observer.fired == system.simulator.events_processed > 0

    def test_trace_collector_alone_leaves_the_simulator_slot_empty(self):
        system = GPUSystem(policy="fcfs", trace=True)
        assert system.execution_engine.observer is system.telemetry
        assert system.simulator.observer is None

    def test_a_bare_observer_is_wired_nowhere(self):
        system = GPUSystem(policy="fcfs")
        observer = BaseObserver()  # overrides no hook
        system.install_observer(observer)
        slots = [system.simulator, system.execution_engine, system.dispatcher, system.cpu]
        slots += list(system.execution_engine.sms())
        assert all(component.observer is None for component in slots)
        with pytest.raises(ValueError, match="already installed"):
            system.install_observer(observer)

    def test_installing_an_installed_observer_raises(self):
        system = GPUSystem(policy="fcfs")
        first, second = KernelWatcher(), KernelWatcher()
        system.install_observer(first)
        with pytest.raises(ValueError, match="already installed"):
            system.install_observer(first)
        with pytest.raises(ValueError, match="already installed"):
            system.install_observer(second, second)
        # A refused call installs nothing.
        assert system.execution_engine.observer is first

    def test_several_observers_install_and_uninstall_in_one_call(self):
        system = GPUSystem(policy="fcfs")
        first, second = KernelWatcher(), KernelWatcher()
        system.install_observer(first, second)
        assert system.execution_engine.observer.observers == [first, second]
        # Neither overrides a dispatcher or SM hook: those stay unobserved.
        assert system.dispatcher.observer is None
        assert all(sm.observer is None for sm in system.execution_engine.sms())
        system.uninstall_observer(first, second)
        slots = [system.simulator, system.execution_engine, system.dispatcher, system.cpu]
        slots += list(system.execution_engine.sms())
        assert all(component.observer is None for component in slots)

    def test_an_observer_without_sm_hooks_keeps_block_runs(self, start_run_calls):
        plain = _run_8sm_preset(start_run_calls)
        watcher = KernelWatcher()
        watched = _run_8sm_preset(start_run_calls, watcher)
        assert watched == plain
        assert (plain["start_run_calls"], plain["events_processed"]) == (402, 345)
        assert watcher.finished > 0

    def test_metrics_and_profiler_keep_block_runs(self, start_run_calls):
        plain = _run_8sm_preset(start_run_calls)
        profiler = EventLoopProfiler()
        observed = _run_8sm_preset(start_run_calls, profiler, metrics={"interval_us": 100.0})
        # Same events, waves, makespan and iterations, with BlockRun engaged.
        assert observed == plain
        assert plain["start_run_calls"] > 0
        assert profiler.total_events == observed["events_processed"]


class KernelWatcher(BaseObserver):
    """Overrides one execution-engine hook and no other."""

    def __init__(self) -> None:
        self.finished = 0

    def on_kernel_finished(self, launch) -> None:
        self.finished += 1


@pytest.fixture
def start_run_calls(monkeypatch):
    """Records each ``StreamingMultiprocessor.start_run`` (a BlockRun issue)."""
    calls = []
    start_run = StreamingMultiprocessor.start_run

    def counting(self, *args, **kwargs):
        calls.append(self.sm_id)
        return start_run(self, *args, **kwargs)

    monkeypatch.setattr(StreamingMultiprocessor, "start_run", counting)
    return calls


def _run_8sm_preset(start_run_calls, *observers, metrics=None):
    """The 8-SM ``large_gpu`` preset run with ``observers`` installed."""
    start_run_calls.clear()
    scenario = generate_large_gpu_scenario(8, metrics=metrics)
    system = GPUSystem.from_scenario(scenario)
    system.install_observer(*observers)
    system.run(
        stop_after_min_iterations=scenario.resolved_min_iterations(),
        max_events=scenario.resolved_max_events(),
    )
    return {
        "start_run_calls": len(start_run_calls),
        "events_processed": system.simulator.events_processed,
        "completion_waves": sum(
            sm.completion_waves_fired for sm in system.execution_engine.sms()
        ),
        "makespan_us": system.simulator.now,
        "iteration_times_us": system.iteration_times_us(),
    }
