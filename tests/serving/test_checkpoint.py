"""Checkpoint/resume tests: split runs are byte-identical to unsplit runs."""

from __future__ import annotations

import copy
import json

import pytest

from repro.serving.driver import CHECKPOINT_SCHEMA, ServingDriver, run_serving

from serving_scenarios import make_overload_scenario, make_serving_scenario


def _summary_json(outcome) -> str:
    return json.dumps(outcome.summary, sort_keys=True)


@pytest.mark.parametrize("bounds", [
    (8_000.0,),
    (5_000.0, 12_000.0),
    (0.0,),
    (2_000.0, 2_000.1, 19_000.0),
])
def test_split_run_is_byte_identical_to_unsplit(bounds):
    scenario = make_serving_scenario()
    unsplit = run_serving(scenario)
    split = run_serving(scenario, checkpoint_at=bounds)
    assert split.segments == len(bounds) + 1
    assert _summary_json(split) == _summary_json(unsplit)


def test_split_run_matches_under_overload_with_drops():
    scenario = make_overload_scenario()
    unsplit = run_serving(scenario)
    split = run_serving(scenario, checkpoint_at=(4_000.0, 11_000.0))
    assert _summary_json(split) == _summary_json(unsplit)
    assert split.summary["queue"]["dropped"] > 0


def test_split_run_matches_with_validation_enabled():
    scenario = make_overload_scenario(validate=True)
    unsplit = run_serving(scenario)
    split = run_serving(scenario, checkpoint_at=(6_000.0,))
    assert _summary_json(split) == _summary_json(unsplit)
    assert split.violations == [] and unsplit.violations == []


def test_checkpoint_payload_is_json_serialisable():
    scenario = make_serving_scenario()
    driver = ServingDriver(scenario)
    driver.run(quiesce_at_us=8_000.0)
    assert not driver.complete
    payload = driver.checkpoint()
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["schema"] == CHECKPOINT_SCHEMA
    assert round_tripped["clock_us"] >= 8_000.0
    assert set(round_tripped["tenants"]) == {"syn-11-0#0", "syn-11-1#1"}
    # The payload is a valid resume state.
    resumed = ServingDriver(scenario, checkpoint=round_tripped)
    resumed.run()
    assert resumed.complete


def test_resumed_driver_continues_the_clock_and_counters():
    scenario = make_serving_scenario()
    first = ServingDriver(scenario)
    first.run(quiesce_at_us=8_000.0)
    state = json.loads(json.dumps(first.checkpoint()))

    resumed = ServingDriver(scenario, checkpoint=state)
    assert resumed.system.simulator.now == state["clock_us"]
    resumed.run()
    reference = ServingDriver(scenario).run()
    assert json.dumps(resumed.summary(), sort_keys=True) == json.dumps(
        reference.summary(), sort_keys=True
    )
    assert resumed.queue.counters.arrived == reference.queue.counters.arrived


def test_checkpoint_schema_mismatch_rejected():
    scenario = make_serving_scenario()
    driver = ServingDriver(scenario)
    driver.run(quiesce_at_us=8_000.0)
    state = driver.checkpoint()
    state["schema"] = 99
    with pytest.raises(ValueError, match="schema"):
        ServingDriver(scenario, checkpoint=state)


def test_final_checkpoint_resumes_as_a_no_op_segment():
    scenario = make_serving_scenario()
    outcome = run_serving(scenario)
    # Resuming the completed run's checkpoint runs an empty segment whose
    # summary is unchanged.
    resumed = ServingDriver(scenario, checkpoint=outcome.checkpoint)
    resumed.run()
    assert resumed.complete
    assert json.dumps(resumed.summary(), sort_keys=True) == _summary_json(outcome)


_HP = "syn-11-0#0"

#: One-field edits of the 8 ms checkpoint, each with the word its error names.
MALFORMED = {
    "negative admitted": (lambda s: s["queue_counters"].update(admitted=-3), "admitted"),
    "early next arrival": (
        lambda s: s["tenants"][_HP].update(next_arrival_us=0.0), "next_arrival_us"
    ),
    "infinite clock": (lambda s: s.update(clock_us=float("inf")), "start_time_us"),
    "nan clock": (lambda s: s.update(clock_us=float("nan")), "start_time_us"),
    "negative clock": (lambda s: s.update(clock_us=-1.0), "start_time_us"),
    "missing clock": (lambda s: s.pop("clock_us"), "clock_us"),
    "missing metrics": (lambda s: s.pop("metrics"), "metrics"),
    "missing tenants": (lambda s: s.pop("tenants"), "tenants"),
    "renamed tenant": (lambda s: s["tenants"].update(bogus=s["tenants"].pop(_HP)), "bogus"),
    "extra tenant": (lambda s: s["tenants"].update(extra=dict(s["tenants"][_HP])), "extra"),
    "negative tenant count": (lambda s: s["tenants"][_HP].update(count=-1), "count"),
}


@pytest.fixture(scope="module")
def checkpoint_at_8ms():
    driver = ServingDriver(make_serving_scenario())
    driver.run(quiesce_at_us=8_000.0)
    return json.loads(json.dumps(driver.checkpoint()))


@pytest.mark.parametrize("edit", sorted(MALFORMED))
def test_malformed_checkpoint_is_rejected(checkpoint_at_8ms, edit):
    mutate, names = MALFORMED[edit]
    state = copy.deepcopy(checkpoint_at_8ms)
    mutate(state)
    with pytest.raises(ValueError, match=names):
        ServingDriver(make_serving_scenario(), checkpoint=state)
