"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_fire_in_time_order(simulator):
    fired = []
    simulator.schedule(5.0, lambda: fired.append("b"))
    simulator.schedule(1.0, lambda: fired.append("a"))
    simulator.schedule(10.0, lambda: fired.append("c"))
    simulator.run()
    assert fired == ["a", "b", "c"]


def test_now_advances_to_event_time(simulator):
    seen = []
    simulator.schedule(3.5, lambda: seen.append(simulator.now))
    simulator.run()
    assert seen == [3.5]
    assert simulator.now == 3.5


def test_same_time_events_fire_in_scheduling_order(simulator):
    fired = []
    for index in range(5):
        simulator.schedule(1.0, lambda i=index: fired.append(i))
    simulator.run()
    assert fired == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_scheduling_order(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append("late"), priority=5)
    simulator.schedule(1.0, lambda: fired.append("early"), priority=0)
    simulator.run()
    assert fired == ["early", "late"]


def test_same_instant_out_of_priority_insertion_order(simulator):
    """Same-instant events scheduled out of priority order still fire sorted."""
    fired = []
    for priority in (5, 1, 3, 0, 4, 2):
        simulator.schedule(1.0, lambda p=priority: fired.append(p), priority=priority)
    simulator.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_sub_nanosecond_times_keep_float_order(simulator):
    """Floats under 1 ns apart are distinct times and fire in float order."""
    fired = []
    base = 1.0
    eps = 2e-7  # well below a nanosecond, still distinct as floats
    simulator.schedule(base + eps, lambda: fired.append("b"))
    simulator.schedule(base, lambda: fired.append("a"))
    simulator.schedule(base + 2 * eps, lambda: fired.append("c"))
    simulator.run()
    assert fired == ["a", "b", "c"]


def test_zero_delay_event_runs_after_current_event(simulator):
    order = []

    def outer():
        order.append("outer")
        simulator.schedule(0.0, lambda: order.append("inner"))

    simulator.schedule(1.0, outer)
    simulator.run()
    assert order == ["outer", "inner"]


def test_negative_delay_rejected(simulator):
    with pytest.raises(SimulationError):
        simulator.schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire(simulator):
    fired = []
    handle = simulator.schedule(1.0, lambda: fired.append("x"))
    simulator.cancel(handle)
    simulator.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent(simulator):
    handle = simulator.schedule(1.0, lambda: None)
    simulator.cancel(handle)
    simulator.cancel(handle)
    assert simulator.events_cancelled == 1


def test_run_until_leaves_future_events_pending(simulator):
    fired = []
    simulator.schedule(1.0, lambda: fired.append(1))
    simulator.schedule(10.0, lambda: fired.append(2))
    simulator.run(until=5.0)
    assert fired == [1]
    assert simulator.now == 5.0
    assert simulator.pending_events == 1
    simulator.run()
    assert fired == [1, 2]


def test_run_until_clamps_past_cancelled_head(simulator):
    """A cancelled head beyond ``until`` is discarded, and now clamps to until."""
    doomed = simulator.schedule(10.0, lambda: None)
    simulator.schedule(20.0, lambda: None)
    doomed.cancel()
    simulator.run(until=15.0)
    assert simulator.now == 15.0
    assert simulator.pending_events == 1
    assert simulator.peek_time() == 20.0


def test_run_until_clamps_when_only_cancelled_heads_remain(simulator):
    for handle in [simulator.schedule(10.0, lambda: None) for _ in range(4)]:
        handle.cancel()
    simulator.run(until=3.0)
    assert simulator.now == 3.0
    assert simulator.pending_events == 0
    assert simulator.peek_time() is None


def test_run_until_advances_clock_even_with_empty_queue(simulator):
    simulator.run(until=42.0)
    assert simulator.now == 42.0


def test_max_events_guard_raises(simulator):
    def reschedule():
        simulator.schedule(1.0, reschedule)

    simulator.schedule(1.0, reschedule)
    with pytest.raises(SimulationError):
        simulator.run(max_events=100)


def test_stop_halts_the_run(simulator):
    fired = []

    def stopper():
        fired.append("stop")
        simulator.stop()

    simulator.schedule(1.0, stopper)
    simulator.schedule(2.0, lambda: fired.append("after"))
    simulator.run()
    assert fired == ["stop"]
    assert simulator.pending_events == 1


def test_step_returns_false_on_empty_queue(simulator):
    assert simulator.step() is False


def test_event_counters(simulator):
    simulator.schedule(1.0, lambda: None)
    simulator.schedule(2.0, lambda: None)
    handle = simulator.schedule(3.0, lambda: None)
    simulator.cancel(handle)
    simulator.run()
    assert simulator.events_scheduled == 3
    assert simulator.events_processed == 2
    assert simulator.events_cancelled == 1


def test_peek_time_skips_cancelled_events(simulator):
    first = simulator.schedule(1.0, lambda: None)
    simulator.schedule(2.0, lambda: None)
    simulator.cancel(first)
    assert simulator.peek_time() == 2.0


def test_fully_cancelled_same_instant_head_is_invisible_to_peek(simulator):
    """Cancel every event at the head instant; peek must skip them all."""
    doomed = [simulator.schedule(1.0, lambda: None) for _ in range(8)]
    simulator.schedule(5.0, lambda: None)
    for handle in doomed:
        handle.cancel()
    assert simulator.peek_time() == 5.0
    assert simulator.pending_events == 1
    fired = []
    simulator.schedule(5.0, lambda: fired.append(True))
    simulator.run()
    assert fired == [True]
    assert simulator.now == 5.0


def test_pending_labels(simulator):
    simulator.schedule(2.0, lambda: None, label="second")
    simulator.schedule(1.0, lambda: None, label="first")
    assert list(simulator.pending_labels()) == ["first", "second"]


def test_pending_labels_skip_cancelled_events(simulator):
    simulator.schedule(3.0, lambda: None, label="c")
    simulator.schedule(1.0, lambda: None, label="a")
    dead = simulator.schedule(2.0, lambda: None, label="b")
    dead.cancel()
    assert simulator.pending_labels() == ["a", "c"]


def test_run_until_clamps_clock_when_stopped(simulator):
    """Regression: stop() used to skip the until-clamp, leaving now < until."""
    fired = []

    def stopper():
        fired.append("stop")
        simulator.stop()

    simulator.schedule(1.0, stopper)
    simulator.schedule(7.0, lambda: fired.append("after"))
    simulator.run(until=5.0)
    assert fired == ["stop"]
    assert simulator.now == 5.0
    # The event beyond ``until`` is still pending and fires on the next run.
    simulator.run()
    assert fired == ["stop", "after"]
    assert simulator.now == 7.0


def test_run_until_clamp_never_jumps_over_pending_events(simulator):
    """A stopped run with events before ``until`` stays resumable."""
    fired = []

    def stopper():
        fired.append("stop")
        simulator.stop()

    simulator.schedule(1.0, stopper)
    simulator.schedule(2.0, lambda: fired.append("after"))
    simulator.run(until=5.0)
    # The pending event at t=2 caps the clamp: jumping to 5 would make it
    # fire in the past on resume.
    assert simulator.now == 2.0
    simulator.run(until=5.0)
    assert fired == ["stop", "after"]
    assert simulator.now == 5.0


def test_run_until_clamps_when_stopped_with_empty_queue(simulator):
    simulator.schedule(1.0, simulator.stop)
    simulator.run(until=5.0)
    assert simulator.now == 5.0


def test_run_without_until_keeps_clock_at_stop_time(simulator):
    simulator.schedule(1.0, simulator.stop)
    simulator.schedule(2.0, lambda: None)
    simulator.run()
    assert simulator.now == 1.0


def test_pending_events_tracks_direct_handle_cancellation(simulator):
    """pending_events is a live counter: direct handle.cancel() must update it."""
    handles = [simulator.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert simulator.pending_events == 4
    handles[0].cancel()  # direct cancel, bypassing Simulator.cancel
    simulator.cancel(handles[1])
    assert simulator.pending_events == 2
    assert simulator.events_cancelled == 2
    handles[1].cancel()  # idempotent: no double counting
    assert simulator.pending_events == 2
    assert simulator.events_cancelled == 2
    simulator.run()
    assert simulator.pending_events == 0
    assert simulator.events_processed == 2


def test_pending_events_matches_heap_scan(simulator):
    """The O(1) counter agrees with a full heap scan at every step."""
    handles = [simulator.schedule(float(i % 7) + 1.0, lambda: None) for i in range(30)]
    for handle in handles[::3]:
        handle.cancel()
    while True:
        scan = sum(1 for entry in simulator._heap if not entry[3].cancelled)
        assert simulator.pending_events == scan
        if not simulator.step():
            break
    assert simulator.pending_events == 0


def test_cancel_after_fire_does_not_corrupt_pending_count(simulator):
    handle = simulator.schedule(1.0, lambda: None)
    simulator.schedule(2.0, lambda: None)
    simulator.run(until=1.5)
    handle.cancel()  # event already fired: must not decrement the live count
    assert simulator.pending_events == 1


def test_observer_sees_each_fired_event_before_its_callback(simulator):
    seen = []

    class Recorder:
        def on_event_fired(self, event, previous_now):
            seen.append(("fired", event.time, previous_now, simulator.now))

    simulator.observer = Recorder()
    simulator.schedule(2.0, lambda: seen.append(("callback", simulator.now)))
    simulator.run()
    # Scheduling notifies nothing; firing notifies once, with the clock
    # already advanced and before the callback runs.
    assert seen == [("fired", 2.0, 0.0, 2.0), ("callback", 2.0)]
    simulator.observer = None
    simulator.schedule(3.0, lambda: None)
    simulator.run()
    assert len(seen) == 2


def test_events_scheduled_during_run_are_processed(simulator):
    fired = []

    def chain(depth: int):
        fired.append(depth)
        if depth < 5:
            simulator.schedule(1.0, lambda: chain(depth + 1))

    simulator.schedule(0.0, lambda: chain(0))
    simulator.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert simulator.now == 5.0


def test_peak_heap_entries_tracks_high_water_mark(simulator):
    for index in range(5):
        simulator.schedule(float(index + 1), lambda: None)
    assert simulator.peak_heap_entries == 5
    simulator.run()
    # Draining the heap never lowers the recorded peak.
    assert simulator.peak_heap_entries == 5


def test_handle_pending_reflects_lifecycle(simulator):
    fired = simulator.schedule(1.0, lambda: None)
    cancelled = simulator.schedule(2.0, lambda: None)
    assert fired.pending and cancelled.pending
    cancelled.cancel()
    assert not cancelled.pending
    simulator.run()
    assert not fired.pending
    assert not fired.cancelled  # fired, not cancelled


def test_dead_entry_compaction_bounds_the_heap():
    simulator = Simulator()
    handles = [simulator.schedule(1000.0 + i, lambda: None) for i in range(500)]
    simulator.schedule(1.0, lambda: None)
    for handle in handles:
        handle.cancel()
    # Far more dead entries than live ones: compaction must have dropped them
    # without waiting for pops.
    assert simulator.pending_events == 1
    assert len(simulator._heap) < 100
    fired = []
    simulator.schedule(2.0, lambda: fired.append(True))
    simulator.run()
    assert fired == [True]
    assert simulator.events_cancelled == 500


def test_compaction_preserves_firing_order():
    simulator = Simulator()
    fired = []
    keep = [simulator.schedule(10.0 + i, lambda i=i: fired.append(i)) for i in range(5)]
    doomed = [simulator.schedule(5.0, lambda: fired.append("no")) for _ in range(200)]
    for handle in doomed:
        handle.cancel()
    simulator.run()
    assert fired == [0, 1, 2, 3, 4]
    assert keep[0].cancelled is False


def test_compaction_counter_and_size_accounting():
    simulator = Simulator()
    keep = simulator.schedule(1000.0, lambda: None)
    doomed = [simulator.schedule(float(i % 13) + 1.0, lambda: None) for i in range(400)]
    for handle in doomed:
        handle.cancel()
    assert simulator.compactions >= 1
    # Compaction dropped the dead entries without waiting for pops.
    assert simulator.pending_events == 1
    assert len(simulator._heap) < 100
    fired = []
    simulator.schedule(1.0, lambda: fired.append(True))
    simulator.run()
    assert fired == [True]
    assert not keep.pending and not keep.cancelled
    assert simulator.events_cancelled == 400
    assert len(simulator._heap) == 0


def test_compaction_preserves_order_across_instants():
    simulator = Simulator()
    fired = []
    for i in range(6):
        simulator.schedule(10.0 + i, lambda i=i: fired.append(i))
    doomed = [
        simulator.schedule(5.0 + (i % 3), lambda: fired.append("no")) for i in range(300)
    ]
    for handle in doomed:
        handle.cancel()
    assert simulator.compactions >= 1
    simulator.run()
    assert fired == [0, 1, 2, 3, 4, 5]
