"""Property-based equivalence of the simulator's event order vs. a reference model.

Hypothesis drives arbitrary interleavings of schedule / cancel / step /
run-until / peek operations — with duplicated timestamps, interleaved
priorities, and floats less than a nanosecond apart — against a trivially
correct reference (a sorted list of live ``(time, priority, seq)`` keys).
The :class:`~repro.sim.engine.Simulator` must fire exactly the event the
model predicts at every step, and conservation must hold: every scheduled
event is eventually fired, cancelled, or still pending.  A second,
cancellation-heavy mix checks the dead-entry bookkeeping behind in-place
compaction against a scan of the heap.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _COMPACTION_MIN_DEAD, Simulator

#: Candidate fire times: duplicates are likely (same-instant bursts), and the
#: near-1.0 triple is distinct as floats but under a nanosecond apart.
TIMES = (0.0, 0.5, 1.0, 1.0 + 2e-7, 1.0 + 4e-7, 2.5, 7.125, 7.1251, 40.0)

_schedule = st.tuples(
    st.just("schedule"), st.integers(0, len(TIMES) - 1), st.integers(0, 3)
)
_cancel = st.tuples(st.just("cancel"), st.integers(0, 2**32), st.just(0))
_step = st.tuples(st.just("step"), st.just(0), st.just(0))
_run_until = st.tuples(
    st.just("run_until"), st.integers(0, len(TIMES) - 1), st.just(0)
)
_peek = st.tuples(st.just("peek"), st.just(0), st.just(0))

OPS = st.lists(
    st.one_of(_schedule, _cancel, _step, _run_until, _peek), max_size=200
)


class _Model:
    """Sorted list of live ``(time, priority, seq)`` keys — the obvious queue."""

    def __init__(self):
        self.live = []

    def push(self, key):
        bisect.insort(self.live, key)

    def remove(self, key):
        index = bisect.bisect_left(self.live, key)
        assert self.live[index] == key
        del self.live[index]

    def pop(self):
        return self.live.pop(0)

    def head_time(self):
        return self.live[0][0] if self.live else None


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_simulator_matches_sorted_list_model(ops):
    sim = Simulator()
    model = _Model()
    fired = []  # keys in the order the simulator fired them
    expected = []  # keys in the order the model predicts
    handles = {}  # seq -> (key, handle) of every event ever scheduled
    cancelled = 0

    for kind, a, b in ops:
        if kind == "schedule":
            # Never in the past: a time behind the clock lands on "now",
            # which also exercises same-instant insertion mid-run.
            time = max(TIMES[a], sim.now)
            key = (time, b, len(handles))
            handle = sim.schedule_at(
                time, lambda key=key: fired.append(key), priority=b, label=str(key[2])
            )
            assert handle.seq == key[2]
            handles[key[2]] = (key, handle)
            model.push(key)
        elif kind == "cancel":
            candidates = [entry for entry in handles.values() if entry[1].pending]
            if candidates:
                key, handle = candidates[a % len(candidates)]
                handle.cancel()
                model.remove(key)
                cancelled += 1
        elif kind == "step":
            before = sim.events_processed
            assert sim.step() is bool(model.live)
            if model.live:
                key = model.pop()
                expected.append(key)
                assert sim.events_processed == before + 1
                assert sim.now == key[0]
        elif kind == "run_until":
            until = TIMES[a]
            while model.live and model.live[0][0] <= until:
                expected.append(model.pop())
            previous = sim.now
            sim.run(until=until)
            assert sim.now == max(previous, until)
        elif kind == "peek":
            assert sim.peek_time() == model.head_time()
        assert sim.pending_events == len(model.live)
        # The live views agree entry-for-entry, in fire order.
        assert sim.pending_labels() == [str(key[2]) for key in model.live]
        assert fired == expected

    # Drain to empty: order must match the model's to the last entry.
    while model.live:
        expected.append(model.pop())
    sim.run()
    assert fired == expected

    # Conservation: everything scheduled was fired or cancelled, and the
    # heap reclaimed every stored entry.
    assert len(fired) + cancelled == len(handles)
    assert sim.events_processed + sim.events_cancelled == sim.events_scheduled
    assert sim.pending_events == 0
    assert sim.peek_time() is None
    assert len(sim._heap) == 0


#: Cancellation-heavy mix: bursts of schedules and cancels, so dead entries
#: pile up past the compaction threshold between pops.
_burst = st.tuples(
    st.just("burst"), st.integers(1, 150), st.integers(0, len(TIMES) - 1)
)
_cancel_many = st.tuples(
    st.just("cancel_many"), st.integers(1, 150), st.integers(0, 2**32)
)
HEAVY_OPS = st.lists(st.one_of(_burst, _cancel_many, _step, _run_until), max_size=40)


@settings(max_examples=100, deadline=None)
@given(ops=HEAVY_OPS)
def test_dead_entry_bookkeeping_matches_heap_scan(ops):
    sim = Simulator()
    model = _Model()
    fired = []
    expected = []
    handles = []

    for kind, a, b in ops:
        if kind == "burst":
            for index in range(a):
                time = max(TIMES[(b + index) % len(TIMES)], sim.now)
                key = (time, index % 3, len(handles))
                handle = sim.schedule_at(
                    time, lambda key=key: fired.append(key), priority=key[1]
                )
                handles.append((key, handle))
                model.push(key)
        elif kind == "cancel_many":
            live = [entry for entry in handles if entry[1].pending]
            for key, handle in live[b % max(len(live), 1):][:a]:
                handle.cancel()
                model.remove(key)
            # Compaction runs on cancellation: once more than the threshold
            # of dead entries outnumber the live ones, they are dropped.
            dead = len(sim._heap) - sim.pending_events
            assert dead <= max(_COMPACTION_MIN_DEAD, sim.pending_events)
        elif kind == "step":
            if sim.step():
                expected.append(model.pop())
        elif kind == "run_until":
            until = TIMES[a]
            while model.live and model.live[0][0] <= until:
                expected.append(model.pop())
            sim.run(until=until)
        scan = sum(1 for entry in sim._heap if entry[3].cancelled)
        assert sim._dead_entries == scan
        assert sim.pending_events == len(sim._heap) - scan == len(model.live)
        assert sim.peak_heap_entries >= len(sim._heap)
        assert fired == expected

    while model.live:
        expected.append(model.pop())
    sim.run()
    assert fired == expected
    assert sim._dead_entries == 0 and len(sim._heap) == 0
