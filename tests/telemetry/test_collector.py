"""Tests for the telemetry trace collector and observer composition."""

from __future__ import annotations

import pytest

from _builders import preempting_system
from repro.sim.observers import CompositeObserver
from repro.telemetry import TraceCollector
from repro.telemetry import events as ev
from repro.validation import make_hub


def _preempting_system(**kwargs):
    """A small system whose PPQ policy preempts a long background kernel."""
    return preempting_system(**kwargs)


class TestCollectorRecording:
    def test_trace_true_attaches_a_collector(self):
        system = _preempting_system(trace=True)
        assert isinstance(system.telemetry, TraceCollector)
        system.run(max_events=5_000_000)
        assert system.telemetry.num_events > 0

    def test_records_full_kernel_and_preemption_lifecycle(self):
        system = _preempting_system(trace=True)
        system.run(max_events=5_000_000)
        counts = system.trace_summary()["counts"]
        for kind in (
            ev.KERNEL_ENQUEUE,
            ev.KERNEL_ISSUE,
            ev.KERNEL_LAUNCH,
            ev.KERNEL_COMPLETE,
            ev.BLOCK_START,
            ev.BLOCK_FINISH,
            ev.PREEMPT_REQUEST,
            ev.PREEMPT_SAVE_START,
            ev.PREEMPT_COMPLETE,
            ev.BLOCK_RESTORE,
            ev.TRANSFER_ENQUEUE,
            ev.TRANSFER_START,
            ev.TRANSFER_COMPLETE,
            ev.CPU_PHASE_START,
            ev.CPU_PHASE_END,
            ev.SM_CONFIGURED,
            ev.SM_RELEASED,
        ):
            assert counts.get(kind, 0) > 0, f"no {kind} events recorded"
        # Every request completes; every completion carries a latency.
        assert counts[ev.PREEMPT_REQUEST] == counts[ev.PREEMPT_COMPLETE]
        completes = [e for e in system.telemetry.events if e.kind == ev.PREEMPT_COMPLETE]
        assert all(e.attrs["latency_us"] >= 0.0 for e in completes)

    def test_events_are_time_ordered_with_dense_sequence(self):
        system = _preempting_system(trace=True)
        system.run(max_events=5_000_000)
        events = system.telemetry.events
        assert [e.seq for e in events] == list(range(len(events)))
        times = [e.time_us for e in events]
        assert times == sorted(times)

    def test_command_ids_are_run_local(self):
        # Two identical systems traced back to back in one process must
        # produce identical command ids even though the underlying global
        # command counter keeps increasing.
        def run_ids():
            system = _preempting_system(trace=True)
            system.run(max_events=5_000_000)
            return [
                e.attrs["cmd"]
                for e in system.telemetry.events
                if e.kind in (ev.KERNEL_ENQUEUE, ev.TRANSFER_ENQUEUE)
            ]

        first, second = run_ids(), run_ids()
        assert first == second
        assert sorted(first) == list(range(len(first)))  # dense, zero-based

    def test_tracing_does_not_perturb_results(self):
        plain = _preempting_system()
        plain.run(max_events=5_000_000)
        traced = _preempting_system(trace=True, validate=True)
        traced.run(max_events=5_000_000)
        assert plain.mean_iteration_times_us() == traced.mean_iteration_times_us()
        assert (
            plain.simulator.events_processed == traced.simulator.events_processed
        )
        assert traced.violations() == []


class TestAttachDetach:
    def test_attach_twice_rejected(self):
        collector = TraceCollector()
        collector.attach(_preempting_system())
        with pytest.raises(RuntimeError, match="already attached"):
            collector.attach(_preempting_system())

    def test_detach_unattached_rejected(self):
        with pytest.raises(RuntimeError, match="unattached"):
            TraceCollector().detach()

    def test_detach_stops_recording_and_clears_system_slot(self):
        system = _preempting_system(trace=True)
        collector = system.telemetry
        system.run(until_us=500.0, max_events=5_000_000)
        recorded = collector.num_events
        assert recorded > 0
        collector.detach()
        assert system.telemetry is None
        assert system.simulator.observer is None
        assert system.execution_engine.observer is None
        assert system.cpu.observer is None
        system.run(max_events=5_000_000)
        assert collector.num_events == recorded  # nothing new after detach

    def test_validation_hub_detach(self):
        system = _preempting_system()
        hub = make_hub()
        hub.attach(system)
        # The hub installs its checkers; each component hears only the
        # checkers of its own hooks, and no checker observes the simulator.
        accounting, occupancy, preemption, dispatch, _metrics = hub.checkers
        sm = system.execution_engine.sms()[0]
        assert sm.observer.observers == [accounting, occupancy, preemption]
        assert system.execution_engine.observer.observers == [accounting, preemption]
        assert system.dispatcher.observer is dispatch
        assert system.simulator.observer is None
        assert system.cpu.observer is None
        hub.detach()
        assert system.execution_engine.observer is None
        assert sm.observer is None
        system.run(max_events=5_000_000)
        assert hub.ok  # no hooks fired, nothing recorded

    def test_detaching_one_observer_keeps_the_other(self):
        system = _preempting_system(validate=True, trace=True)
        hub, collector = system.validation, system.telemetry
        hub.detach()
        assert system.execution_engine.observer is collector
        system.run(max_events=5_000_000)
        assert collector.num_events > 0

    def test_collector_can_reattach_after_detach(self):
        collector = TraceCollector()
        first = _preempting_system()
        collector.attach(first)
        first.run(until_us=500.0, max_events=5_000_000)
        collector.detach()
        recorded = collector.num_events
        second = _preempting_system()
        collector.attach(second)
        second.run(max_events=5_000_000)
        assert collector.num_events > recorded


class TestComposition:
    def test_validate_and_trace_compose(self):
        system = _preempting_system(validate=True, trace=True)
        # Where checkers and the collector share a component, a composite
        # forwards to them in install order; the collector alone fills the
        # components no checker hears.
        collector = system.telemetry
        accounting, occupancy, preemption, dispatch, _metrics = system.validation.checkers
        sm = system.execution_engine.sms()[0]
        assert isinstance(sm.observer, CompositeObserver)
        assert sm.observer.observers == [accounting, occupancy, preemption, collector]
        assert system.execution_engine.observer.observers == [
            accounting, preemption, collector,
        ]
        assert system.dispatcher.observer.observers == [dispatch, collector]
        assert system.cpu.observer is collector
        assert system.simulator.observer is None
        system.run(max_events=5_000_000)
        assert system.violations() == []
        assert system.telemetry.num_events > 0

    def test_install_same_observer_twice_rejected(self):
        system = _preempting_system()
        collector = TraceCollector()
        collector.attach(system)
        with pytest.raises(ValueError, match="already installed"):
            system.install_observer(collector)

    def test_uninstall_is_idempotent(self):
        system = _preempting_system()
        collector = TraceCollector()
        collector.attach(system)
        system.uninstall_observer(collector)
        system.uninstall_observer(collector)  # no error
        assert system.execution_engine.observer is None
