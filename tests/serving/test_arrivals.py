"""Arrival-process tests: determinism, resumability, distribution means."""

from __future__ import annotations

import pytest

from repro.registry import ARRIVALS, UnknownComponentError
from repro.serving.arrivals import (
    MAX_GAP_US,
    ArrivalProcess,
    MMPPArrivals,
    ReplayArrivals,
    make_arrival_process,
)

KINDS = ("poisson", "mmpp", "lognormal", "pareto")


def _make(kind: str, seed: int = 7, mean: float = 100.0) -> ArrivalProcess:
    return make_arrival_process(kind, seed=seed, mean_interarrival_us=mean)


def test_registry_lists_every_builtin_kind():
    names = set(ARRIVALS.names())
    assert {"poisson", "mmpp", "lognormal", "pareto", "replay"} <= names


@pytest.mark.parametrize("alias,canonical", [
    ("exponential", "poisson"),
    ("bursty", "mmpp"),
    ("onoff", "mmpp"),
    ("trace", "replay"),
])
def test_aliases_resolve_to_canonical_names(alias, canonical):
    assert ARRIVALS.canonical_name(alias) == canonical


def test_unknown_kind_raises_with_suggestion():
    with pytest.raises(UnknownComponentError) as excinfo:
        make_arrival_process("possion", seed=1)
    assert "poisson" in str(excinfo.value)


@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_yields_identical_streams(kind):
    first = [_make(kind).next_gap_us() for _ in range(200)]
    second = [_make(kind).next_gap_us() for _ in range(200)]
    assert first == second


@pytest.mark.parametrize("kind", KINDS)
def test_different_seeds_yield_different_streams(kind):
    a = [_make(kind, seed=1).next_gap_us() for _ in range(50)]
    b = [_make(kind, seed=2).next_gap_us() for _ in range(50)]
    assert a != b


@pytest.mark.parametrize("kind", KINDS)
def test_gaps_are_clamped_and_rounded(kind):
    for gap in (_make(kind).next_gap_us() for _ in range(500)):
        assert 0.0 <= gap <= MAX_GAP_US
        assert gap == round(gap, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_state_round_trip_resumes_byte_identically(kind):
    reference = _make(kind)
    full = [reference.next_gap_us() for _ in range(300)]

    prefix = _make(kind)
    head = [prefix.next_gap_us() for _ in range(120)]
    state = prefix.state()

    resumed = _make(kind)
    resumed.restore(state)
    tail = [resumed.next_gap_us() for _ in range(180)]
    assert head + tail == full


@pytest.mark.parametrize("kind", ("poisson", "lognormal", "pareto"))
def test_mean_interarrival_is_approximately_preserved(kind):
    mean = 250.0
    proc = make_arrival_process(kind, seed=3, mean_interarrival_us=mean)
    gaps = [proc.next_gap_us() for _ in range(4000)]
    sample_mean = sum(gaps) / len(gaps)
    # Heavy tails make the sample mean noisy; 20% is well inside the noise
    # floor at n=4000 while still catching a mis-parameterised distribution.
    assert abs(sample_mean - mean) / mean < 0.20


def test_mmpp_alternates_dense_and_sparse_phases():
    proc = MMPPArrivals(seed=5, mean_interarrival_us=100.0, burstiness=8.0)
    gaps = [proc.next_gap_us() for _ in range(2000)]
    on_like = sum(1 for g in gaps if g < 100.0 / 2.0)
    off_like = sum(1 for g in gaps if g > 100.0 * 2.0)
    assert on_like > 0 and off_like > 0


def test_mmpp_validates_parameters():
    with pytest.raises(ValueError):
        MMPPArrivals(burstiness=0.5)
    with pytest.raises(ValueError):
        MMPPArrivals(mean_burst_len=0)


def test_replay_cycles_through_the_gap_list():
    proc = ReplayArrivals(interarrival_us=[1.0, 2.0, 3.0])
    assert [proc.next_gap_us() for _ in range(7)] == [
        1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0,
    ]


def test_replay_without_cycling_pushes_past_any_horizon():
    proc = ReplayArrivals(interarrival_us=[1.0, 2.0], wrap=False)
    assert proc.next_gap_us() == 1.0
    assert proc.next_gap_us() == 2.0
    assert proc.next_gap_us() == MAX_GAP_US


def test_replay_validates_gaps():
    with pytest.raises(ValueError):
        ReplayArrivals(interarrival_us=[])
    with pytest.raises(ValueError):
        ReplayArrivals(interarrival_us=[1.0, -2.0])


def test_replay_default_is_wrapping():
    # Regression pin: replay has always cycled its gap list by default, and
    # loadgen's wrap rename must not change that.
    proc = ReplayArrivals(interarrival_us=[1.0, 2.0])
    assert proc.wrap is True
    assert [proc.next_gap_us() for _ in range(5)] == [1.0, 2.0, 1.0, 2.0, 1.0]


def test_replay_wrap_false_halts_on_exhaustion():
    proc = ReplayArrivals(interarrival_us=[1.0, 2.0], wrap=False)
    assert [proc.next_gap_us() for _ in range(3)] == [1.0, 2.0, MAX_GAP_US]
    assert proc.next_gap_us() == MAX_GAP_US  # stays exhausted


def test_replay_section_with_removed_cycle_key_fails_clearly():
    with pytest.raises(TypeError, match="unexpected keyword argument 'cycle'"):
        make_arrival_process("replay", interarrival_us=[1.0], cycle=False)


def test_replay_wrap_state_round_trips():
    proc = ReplayArrivals(interarrival_us=[1.0, 2.0, 3.0], wrap=False)
    proc.next_gap_us()
    proc.next_gap_us()
    state = proc.state()
    assert state == {"index": 2, "wrap": False}

    resumed = ReplayArrivals(interarrival_us=[1.0, 2.0, 3.0])
    resumed.restore(state)
    assert resumed.wrap is False
    assert resumed.next_gap_us() == 3.0
    assert resumed.next_gap_us() == MAX_GAP_US

    # Pre-wrap checkpoints (no flag) leave the constructor's choice alone.
    legacy = ReplayArrivals(interarrival_us=[1.0, 2.0], wrap=False)
    legacy.restore({"index": 1})
    assert legacy.wrap is False


def test_non_positive_mean_rejected():
    with pytest.raises(ValueError):
        make_arrival_process("poisson", mean_interarrival_us=0.0)
