"""Tests of the benchmark's own logic, and a tiny-size run of each workload."""

from __future__ import annotations

import json
import os
import types

import pytest

from repro.experiments.scale import block_equivalent_events

from perfbench import harness
from perfbench.layers import (
    OTHER,
    Spans,
    call_count,
    check_metric,
    nearest_rank,
    package_of,
    ratio,
    self_time_by_package,
    shares,
    slo_miss_ratio,
)
from perfbench.workloads import WORKLOADS, Output, busiest_epoch

ROOT = "/x/src/repro"


def _fn(path, name="f"):
    return (path, 1, name)


def test_block_equivalent_counts_one_event_per_block():
    # 10 events, of which 2 fired waves carrying 8 blocks in all.
    stats = {"block_completion_events": 2.0, "blocks_executed": 8.0}
    assert block_equivalent_events(10, stats) == 16
    # One block per completion event: raw events already count blocks.
    assert block_equivalent_events(10, {"block_completion_events": 4, "blocks_executed": 4}) == 10


def test_slo_miss_ratio_counts_drops_as_misses():
    assert slo_miss_ratio(3, 2, 100) == pytest.approx(0.05)
    assert slo_miss_ratio(0, 0, 50) == 0.0
    assert slo_miss_ratio(0, 0, 0) == 0.0


def test_ratio_of_nothing_attempted_is_zero():
    assert ratio(5, 0) == 0.0
    assert ratio(1, 4) == 0.25


def test_nearest_rank_quantiles():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_package_of_groups_by_repro_subpackage():
    assert package_of(f"{ROOT}/core/policies/priority.py", ROOT) == "core"
    assert package_of(f"{ROOT}/registry.py", ROOT) == "repro"
    assert package_of("/x/src/repro_extra/a.py", ROOT) is None
    assert package_of("~", ROOT) is None


def test_self_time_folds_library_frames_into_their_callers():
    engine = _fn(f"{ROOT}/sim/engine.py", "run")
    encode = _fn("/usr/lib/python3.11/json/encoder.py", "encode")
    stats = {
        engine: (1, 1, 2.0, 5.0, {}),
        _fn(f"{ROOT}/gpu/sm.py"): (1, 1, 1.0, 1.0, {engine: (1, 1, 1.0, 1.0)}),
        _fn(f"{ROOT}/system.py", "__init__"): (1, 1, 0.5, 0.5, {}),
        ("~", 0, "<built-in method _heapq.heappush>"): (
            3, 3, 0.6, 0.6, {engine: (2, 2, 0.4, 0.4), encode: (1, 1, 0.2, 0.2)},
        ),
        encode: (1, 1, 0.3, 0.5, {}),
    }
    totals = self_time_by_package(stats, ROOT)
    assert totals == pytest.approx({"sim": 2.4, "gpu": 1.0, "repro": 0.5, OTHER: 0.5})
    layer_shares = shares(totals, ("sim", "gpu", "memory"))
    assert layer_shares == pytest.approx({"sim": 2.4 / 4.4, "gpu": 1.0 / 4.4, "memory": 0.0})


def test_call_count_matches_file_and_function():
    stats = {
        _fn(f"{ROOT}/memory/address_space.py", "map"): (5, 5, 0.0, 0.0, {}),
        _fn(f"{ROOT}/gpu/kernel.py", "map"): (7, 7, 0.0, 0.0, {}),
    }
    assert call_count(stats, "repro/memory/address_space.py", "map") == 5
    assert call_count(stats, "repro/memory/address_space.py", "unmap") == 0


@pytest.mark.parametrize("name", ["wall_s", "sim.self_share", "9lives", "a-b.c_d"])
def test_metric_names_accepted(name):
    check_metric(name, "1/s")


@pytest.mark.parametrize(
    "name, unit",
    [("_wall", "s"), ("wall s", "s"), ("x" * 65, "s"), ("", "s"), ("ok", "µs"), ("ok", "")],
)
def test_metric_names_rejected(name, unit):
    with pytest.raises(ValueError):
        check_metric(name, unit)


def test_benchmark_json_matches_the_metric_tables():
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check_metric(metric["name"], metric["unit"])
        assert metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spans_record_parents_and_durations():
    spans = Spans()
    with spans.span("setup"):
        with spans.span("loadgen.synth"):
            pass
    with spans.span("setup"):
        pass
    assert [s.parent for s in spans.spans] == [None, 0, None]
    assert len(spans.durations("setup")) == 2
    assert all(d >= 0 for d in spans.durations("loadgen.synth"))
    assert [s["name"] for s in spans.to_dicts()] == ["setup", "loadgen.synth", "setup"]


def test_busiest_epoch_uses_the_fleet_epoch_bounds():
    tenant = types.SimpleNamespace(arrivals_us=[1.0, 10.0, 10.5, 19.0, 20.0, 25.0])
    trace = types.SimpleNamespace(horizon_us=25.0, tenants=[tenant])
    # Bounds 10, 20, 25: an arrival on a bound belongs to the epoch it closes.
    assert busiest_epoch(trace, 10.0) == 3


class _FakeScenario:
    def to_dict(self):
        return {}


class _FakeWorkload:
    """Two drops and one violation per run; the third run's digest differs."""

    digest_family = "fake"
    seeded = True

    def __init__(self):
        self.digests = iter(["a", "a", "b"])

    def setup(self, seed, spans):
        return types.SimpleNamespace(scenario=_FakeScenario())

    def execute(self, case):
        return Output(
            digest=next(self.digests), simulated_us=100.0, events=10, block_events=20,
            completed=8, arrived=10, dropped=2, violations=1, sim={},
        )

    def reference(self, seed):
        return None


def test_failures_count_drops_violations_and_digest_mismatches(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "fake", lambda tiny=False: _FakeWorkload())
    monkeypatch.setattr(harness, "MIN_REPS", 3)
    result = harness.measure("fake", 0, 0.0, False)
    assert result.correct is False
    assert result.attempted == 30
    assert result.failed == 1 + 3 * (2 + 1)
    assert set(result.metrics) == set(harness.END_TO_END)
    wall = result.metrics["wall_s"]
    assert result.metrics["block_events_per_s"] == pytest.approx(20 / wall)
    assert result.metrics["requests_per_s"] == pytest.approx(8 / wall)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload(name, trace):
    result = harness.measure(name, 3, 0.0, trace, tiny=True)
    assert result.correct
    assert result.attempted >= 1
    assert result.failed == 0
    assert set(result.metrics) == set(harness.PER_LAYER if trace else harness.END_TO_END)
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if trace:
        assert 0.0 < sum(result.metrics[f"{layer}.self_share"] for layer in harness.LAYERS) <= 1.0
        assert result.metrics["sim.events"] > 0
    else:
        assert all(value > 0 for value in result.metrics.values())
