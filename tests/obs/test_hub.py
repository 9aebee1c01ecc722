"""MetricsHub behaviour: alignment, state round-trip, exporters, checkpoints."""

from __future__ import annotations

import copy
import json
import math
import re

import pytest

from repro.obs import (
    DEFAULT_INTERVAL_US,
    MetricsHub,
    normalize_label,
    read_jsonl,
    render_dashboard,
    render_jsonl,
    render_prometheus,
    resolve_metrics_spec,
    write_jsonl,
    write_prometheus,
)
from repro.scenario import ScenarioSpec, SchemeSpec
from repro.sim.events import Event


def fire(hub, time_us, label):
    """Hand ``hub`` one fired event, as the simulator's hook does."""
    hub.on_event_fired(Event(time_us, 0, 0, lambda: None, label), 0.0)


def make_serving_scenario(metrics=None):
    """A small two-tenant open-loop scenario for hub checkpoint tests."""
    return ScenarioSpec(
        scheme=SchemeSpec(
            name="ppq_cs", policy="ppq", mechanism="context_switch",
            transfer_policy="npq",
        ),
        applications=("syn-11-0", "syn-11-1"),
        high_priority_index=0,
        scale="smoke",
        metrics=metrics,
        arrivals={
            "horizon_us": 20_000.0,
            "warmup_us": 2_000.0,
            "queue_capacity": 16,
            "admission": "drop",
            "max_inflight": 4,
            "window_us": 5_000.0,
            "tenants": [
                {"process": "mmpp", "seed": 1, "mean_interarrival_us": 400.0},
                {"process": "poisson", "seed": 2, "mean_interarrival_us": 600.0},
            ],
        },
        slo={"default": 3_000.0},
    )


# ----------------------------------------------------------------------
# Spec resolution and label normalization
# ----------------------------------------------------------------------
def test_resolve_metrics_spec_defaults_and_validation():
    resolved = resolve_metrics_spec(None)
    assert resolved == {
        "interval_us": DEFAULT_INTERVAL_US,
        "heartbeat": False,
        "histogram_growth": 2.0,
    }
    assert resolve_metrics_spec(True) == resolved
    assert resolve_metrics_spec({}) == resolved
    assert resolve_metrics_spec({"interval_us": 50})["interval_us"] == 50.0
    with pytest.raises(ValueError):
        resolve_metrics_spec({"interval_us": 0})
    with pytest.raises(ValueError):
        resolve_metrics_spec({"cadence": 5})


def test_normalize_label_collapses_digit_runs():
    assert normalize_label("sm12.wave34.complete") == "smN.waveN.complete"
    assert normalize_label("serving.arrival.lbm#0") == "serving.arrival.lbm#N"
    assert normalize_label("plain") == "plain"
    assert normalize_label("") == "unlabeled"


# ----------------------------------------------------------------------
# Snapshot alignment
# ----------------------------------------------------------------------
def test_rows_land_on_interval_multiples():
    hub = MetricsHub(interval_us=100.0)
    fire(hub, 5.0, "a")
    assert hub.rows == []
    fire(hub, 105.0, "a")
    assert [row["t_us"] for row in hub.rows] == [100.0]
    fire(hub, 350.0, "b")
    assert [row["t_us"] for row in hub.rows] == [100.0, 300.0]
    # Sparse event streams produce sparse rows, not a backlog.
    fire(hub, 950.0, "a")
    assert [row["t_us"] for row in hub.rows] == [100.0, 300.0, 900.0]


def test_start_us_aligns_to_the_global_grid():
    hub = MetricsHub(interval_us=100.0, start_us=250.0)
    fire(hub, 260.0, "a")
    assert hub.rows == []
    fire(hub, 301.0, "a")
    assert [row["t_us"] for row in hub.rows] == [300.0]


def test_event_counts_mirror_into_registry_on_sample():
    hub = MetricsHub(interval_us=100.0)
    fire(hub, 1.0, "sm1.block(2, 3).complete")
    fire(hub, 2.0, "sm2.block(4, 5).complete")
    hub.emit_row(10.0)
    row = hub.rows[-1]
    assert row["metrics"]["engine.events.smN.block(N, N).complete"] == 2


def test_finalize_emits_once_and_only_past_last_row():
    hub = MetricsHub(interval_us=100.0)
    fire(hub, 150.0, "a")
    hub.finalize(150.0)
    assert [row["t_us"] for row in hub.rows] == [100.0, 150.0]
    hub.finalize(150.0)  # already covered: no extra row
    assert len(hub.rows) == 2


def test_state_restore_continues_identically():
    def feed(hub, times):
        for t in times:
            fire(hub, t, f"evt{int(t) % 3}")

    first_half = [12.0, 90.0, 150.0, 260.0]
    second_half = [310.0, 420.0, 555.0]

    unbroken = MetricsHub(interval_us=100.0)
    feed(unbroken, first_half + second_half)
    unbroken.finalize(600.0)

    part = MetricsHub(interval_us=100.0)
    feed(part, first_half)
    state = json.loads(json.dumps(part.state()))
    resumed = MetricsHub(interval_us=100.0)
    resumed.restore(state)
    feed(resumed, second_half)
    resumed.finalize(600.0)

    assert resumed.rows == unbroken.rows
    assert resumed.event_counts == unbroken.event_counts


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        MetricsHub(interval_us=0.0)


def test_empty_metrics_spec_attaches_hub_with_defaults():
    """``metrics={}`` (the canonical form of a bare ``--metrics``) is ON.

    Regression: the hub gate used spec truthiness, so an empty mapping —
    exactly what the CLI produces without ``--metrics-interval`` — silently
    disabled metrics.
    """
    from repro.system import GPUSystem
    from repro.workloads.synthetic import generate_synthetic_scenario

    scenario = generate_synthetic_scenario(3, scale="smoke", metrics={})
    system = GPUSystem.from_scenario(scenario)
    assert system.metrics is not None
    assert system.metrics.interval_us == DEFAULT_INTERVAL_US
    system.run(stop_after_min_iterations=2)
    assert system.metrics.rows


def test_gpu_sampler_mirrors_every_engine_count():
    """The last row carries each execution-engine count as ``gpu.<name>``,
    the per-mechanism preemption counts included."""
    from repro.system import GPUSystem
    from repro.trace.generator import TraceGenerator

    generator = TraceGenerator()
    # A 90 us drain budget splits the preemptions between both mechanisms.
    system = GPUSystem(policy="ppq", controller="hybrid",
                       controller_options={"drain_budget_us": 90.0}, metrics={})
    low = generator.uniform_kernel("low", num_blocks=5000, tb_time_us=100.0,
                                   registers_per_block=8192, cpu_time_us=1.0)
    high = generator.uniform_kernel("high", num_blocks=52, tb_time_us=5.0,
                                    registers_per_block=8192, cpu_time_us=1.0)
    system.add_process("low", low, priority=0, max_iterations=1)
    system.add_process("high", high, priority=10, start_delay_us=2000.0, max_iterations=1)
    system.run(max_events=5_000_000)

    stats = system.execution_engine.stats
    assert stats["preemptions_via.context_switch"] > 0
    assert stats["preemptions_via.draining"] > 0
    row = system.metrics.rows[-1]
    assert row["t_us"] == system.simulator.now
    assert {name: row["metrics"][f"gpu.{name}"] for name in stats} == {
        name: float(count) for name, count in stats.items()
    }


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _hub_with_rows():
    hub = MetricsHub(interval_us=100.0)
    hub.meta = {"policy": "ppq", "scale": "smoke"}
    hub.registry.gauge("queue.depth")
    hist = hub.registry.histogram("lat")
    for t, depth, sample in ((100.0, 2, 5.0), (200.0, 4, 9.0), (300.0, 1, 0.0)):
        hub.registry.gauge("queue.depth").set(depth)
        hist.observe(sample)
        hub.emit_row(t)
    return hub


def test_jsonl_round_trip(tmp_path):
    hub = _hub_with_rows()
    path = str(tmp_path / "series.metrics.jsonl")
    write_jsonl(hub.rows, path, meta=hub.meta)
    parsed = read_jsonl(path)
    assert parsed["meta"] == hub.meta
    assert parsed["rows"] == json.loads(json.dumps(hub.rows))
    # Rendering is deterministic bytes.
    assert render_jsonl(hub.rows, meta=hub.meta) == render_jsonl(
        hub.rows, meta=dict(hub.meta)
    )


def test_read_jsonl_rejects_non_series(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"rows": 1}\n')
    with pytest.raises(ValueError):
        read_jsonl(str(path))


def test_prometheus_rendering_has_cumulative_buckets():
    hub = _hub_with_rows()
    text = render_prometheus(hub.registry, meta=hub.meta)
    assert "# META policy ppq" in text
    assert "# TYPE repro_queue_depth gauge" in text
    assert "# TYPE repro_lat histogram" in text
    assert 'repro_lat_bucket{le="0"} 1' in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert "repro_lat_count 3" in text
    # bucket counts are cumulative (non-decreasing in le order).
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_lat_bucket")
    ]
    assert counts == sorted(counts)


def test_dashboard_shows_changing_series_and_notes_truncation():
    hub = _hub_with_rows()
    text = render_dashboard(hub.rows, meta=hub.meta)
    assert "policy=ppq" in text
    assert "queue.depth" in text
    assert "3 snapshot(s)" in text
    truncated = render_dashboard(hub.rows, meta=hub.meta, max_series=1)
    assert "more series not shown" in truncated
    assert render_dashboard([], meta=hub.meta) == "(no snapshot rows)\n"


def test_exporter_functions_write_all_three_formats(tmp_path):
    hub = _hub_with_rows()
    jsonl = str(tmp_path / "a.jsonl")
    prom = str(tmp_path / "a.prom")
    assert write_jsonl(hub.rows, jsonl, meta=hub.meta) == jsonl
    assert write_prometheus(hub.registry, prom, meta=hub.meta) == prom
    with open(jsonl, encoding="utf-8") as handle:
        assert handle.read() == render_jsonl(hub.rows, meta=hub.meta)
    with open(prom, encoding="utf-8") as handle:
        assert handle.read() == render_prometheus(hub.registry, meta=hub.meta)
    text = render_dashboard(hub.rows, meta=hub.meta)
    assert text == render_dashboard(hub.rows, meta=dict(hub.meta))


# ----------------------------------------------------------------------
# Serving checkpoint round-trip
# ----------------------------------------------------------------------
def test_serving_checkpoint_carries_hub_state():
    from repro.serving.driver import ServingDriver

    scenario = make_serving_scenario(metrics={"interval_us": 1_000.0})
    driver = ServingDriver(scenario)
    driver.run(quiesce_at_us=8_000.0)
    payload = json.loads(json.dumps(driver.checkpoint()))
    assert "obs" in payload
    resumed = ServingDriver(scenario, checkpoint=payload)
    hub = resumed.system.metrics
    assert hub is not None
    assert hub.rows == payload["obs"]["rows"]
    assert hub.event_counts == payload["obs"]["event_counts"]


def test_serving_checkpoint_without_metrics_has_no_obs_key():
    from repro.serving.driver import ServingDriver

    driver = ServingDriver(make_serving_scenario(metrics=None))
    driver.run(quiesce_at_us=8_000.0)
    assert "obs" not in driver.checkpoint()


#: One-field edits of the metrics-on 8 ms checkpoint, each with the word its
#: error names.  Each once resumed: a negative cadence cut 237 rows instead
#: of 17 and another cadence than the scenario's moved the row grid, a zero
#: cadence or unit growth died mid-run with a bare ZeroDivisionError, a
#: non-mapping section or row list raised a bare TypeError, and the rest
#: resumed silently.
MALFORMED_OBS = {
    "negative interval": (lambda s: s["obs"].update(interval_us=-1_000.0), "interval_us"),
    "zero interval": (lambda s: s["obs"].update(interval_us=0), "interval_us"),
    "other interval": (lambda s: s["obs"].update(interval_us=500.0), "interval_us"),
    "list section": (lambda s: s.update(obs=[]), "obs"),
    "scalar rows": (lambda s: s["obs"].update(rows=5), "rows"),
    "unit histogram growth": (
        lambda s: s["obs"]["registry"]["engine.wave_size"].update(growth=1.0), "growth"
    ),
    "negative histogram count": (
        lambda s: s["obs"]["registry"]["engine.wave_size"].update(count=-3), "count"
    ),
    "histogram count past its buckets": (
        lambda s: s["obs"]["registry"]["engine.wave_size"].update(count=72), "count"
    ),
    "nan boundary": (lambda s: s["obs"].update(next_due_us=math.nan), "next_due_us"),
    "negative event count": (
        lambda s: s["obs"]["event_counts"].update({"serving.quiesce": -3}), "serving.quiesce"
    ),
}


@pytest.fixture(scope="module")
def observed_checkpoint_at_8ms():
    from repro.serving.driver import ServingDriver

    driver = ServingDriver(make_serving_scenario(metrics={"interval_us": 1_000.0}))
    driver.run(quiesce_at_us=8_000.0)
    return json.loads(json.dumps(driver.checkpoint()))


def test_well_formed_observed_checkpoint_resumes(observed_checkpoint_at_8ms):
    from repro.serving.driver import ServingDriver

    scenario = make_serving_scenario(metrics={"interval_us": 1_000.0})
    resumed = ServingDriver(scenario, checkpoint=copy.deepcopy(observed_checkpoint_at_8ms))
    assert len(resumed.run().system.metrics.rows) == 17


@pytest.mark.parametrize("edit", sorted(MALFORMED_OBS))
def test_malformed_obs_checkpoint_is_rejected(observed_checkpoint_at_8ms, edit):
    from repro.serving.driver import ServingDriver

    mutate, names = MALFORMED_OBS[edit]
    state = copy.deepcopy(observed_checkpoint_at_8ms)
    mutate(state)
    with pytest.raises(ValueError, match=re.escape(names)):
        ServingDriver(make_serving_scenario(metrics={"interval_us": 1_000.0}), checkpoint=state)


def test_split_serving_run_produces_identical_serving_metrics_rows():
    """Split and unsplit runs share the snapshot grid and serving series.

    Engine/GPU-layer counters (heap depth, events scheduled, wave sizes) are
    per-system and reset with the fresh system each resumed segment builds,
    so only the checkpoint-carried ``serving.*`` series — and the row grid
    itself — are asserted byte-identical.
    """
    from repro.serving.driver import run_serving

    def serving_only(rows):
        return [
            {
                "t_us": row["t_us"],
                "metrics": {
                    name: value
                    for name, value in row["metrics"].items()
                    if name.startswith("serving.")
                },
            }
            for row in rows
        ]

    scenario = make_serving_scenario(metrics={"interval_us": 500.0})
    unsplit = run_serving(scenario)
    split = run_serving(scenario, checkpoint_at=(6_500.0, 13_000.0))
    assert unsplit.metrics_rows is not None
    assert [r["t_us"] for r in split.metrics_rows] == [
        r["t_us"] for r in unsplit.metrics_rows
    ]
    assert json.dumps(serving_only(split.metrics_rows), sort_keys=True) == json.dumps(
        serving_only(unsplit.metrics_rows), sort_keys=True
    )
    # The final serving-layer snapshot values agree too.
    for name, value in unsplit.metrics_snapshot.items():
        if name.startswith("serving."):
            assert split.metrics_snapshot[name] == value
