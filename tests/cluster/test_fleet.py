"""Integration tests for the multi-GPU fleet layer."""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterSpec, run_fleet
from repro.registry import UnknownComponentError
from repro.runner import BatchRunner, execute_scenario
from repro.scenario import ScenarioSpec, SchemeSpec


def fleet_scenario(
    seed: int = 3,
    *,
    num_gpus: int = 4,
    router: str = "least_loaded",
    router_options: dict | None = None,
    trace: bool = False,
    validate: bool = False,
    horizon_us: float = 24_000.0,
    metrics: dict | None = None,
) -> ScenarioSpec:
    return ScenarioSpec(
        scheme=SchemeSpec(policy="fcfs"),
        applications=(f"syn-{seed}-0", f"syn-{seed}-1"),
        high_priority_index=0,
        scale="smoke",
        trace=trace,
        validate=validate,
        metrics=metrics,
        arrivals={
            "horizon_us": horizon_us,
            "warmup_us": horizon_us / 8.0,
            "window_us": horizon_us / 4.0,
            "queue_capacity": 32,
            "admission": "drop",
            "max_inflight": 4,
            "tenants": [
                {
                    "process": "mmpp",
                    "seed": seed,
                    "mean_interarrival_us": 900.0,
                    "burstiness": 8.0,
                },
                {"process": "poisson", "seed": seed + 1, "mean_interarrival_us": 600.0},
            ],
        },
        slo={"default": 3200.0},
        cluster={
            "num_gpus": num_gpus,
            "router": router,
            "router_options": router_options or {},
            "epoch_us": horizon_us / 6.0,
        },
    )


# ----------------------------------------------------------------------
# ClusterSpec validation
# ----------------------------------------------------------------------
def test_cluster_spec_parses_and_canonicalizes():
    spec = ClusterSpec.from_scenario(fleet_scenario(router="ll"))
    assert spec.num_gpus == 4
    assert spec.router == "least_loaded"
    assert spec.epoch_us == pytest.approx(4_000.0)


def test_cluster_spec_defaults_epoch_to_an_eighth_of_the_horizon():
    scenario = fleet_scenario()
    cluster = dict(scenario.cluster)
    del cluster["epoch_us"]
    scenario = ScenarioSpec.from_dict({**scenario.to_dict(), "cluster": cluster})
    assert ClusterSpec.from_scenario(scenario).epoch_us == pytest.approx(3_000.0)


def test_cluster_spec_rejects_unknown_keys():
    scenario = fleet_scenario()
    bad = {**scenario.to_dict(), "cluster": {"num_gpus": 2, "shards": 3}}
    with pytest.raises(ValueError, match="unknown cluster keys"):
        ClusterSpec.from_scenario(ScenarioSpec.from_dict(bad))


def test_cluster_spec_rejects_unknown_router():
    with pytest.raises(UnknownComponentError):
        ClusterSpec.from_scenario(fleet_scenario(router="weighted"))


def test_cluster_spec_rejects_bad_sizes():
    scenario = fleet_scenario()
    with pytest.raises(ValueError, match="num_gpus"):
        ClusterSpec.from_scenario(
            ScenarioSpec.from_dict({**scenario.to_dict(), "cluster": {"num_gpus": 0}})
        )
    with pytest.raises(ValueError, match="epoch_us"):
        ClusterSpec.from_scenario(
            ScenarioSpec.from_dict(
                {**scenario.to_dict(), "cluster": {"num_gpus": 2, "epoch_us": 0.0}}
            )
        )


def test_scenario_rejects_cluster_without_arrivals():
    with pytest.raises(ValueError, match="arrivals"):
        ScenarioSpec(
            scheme=SchemeSpec(policy="fcfs"),
            applications=("syn-1-0",),
            scale="smoke",
            cluster={"num_gpus": 2},
        )


def test_cluster_section_round_trips_through_dict():
    scenario = fleet_scenario()
    clone = ScenarioSpec.from_dict(scenario.to_dict())
    assert clone.cluster == scenario.cluster
    assert clone.to_dict() == scenario.to_dict()


# ----------------------------------------------------------------------
# Fleet runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def outcome():
    return run_fleet(fleet_scenario())


def test_fleet_summary_structure(outcome):
    summary = outcome.summary
    assert summary["num_gpus"] == 4
    assert summary["router"] == "least_loaded"
    assert len(summary["per_gpu"]) == 4
    assert summary["epochs"] == outcome.epochs == 6
    queue = summary["queue"]
    assert queue["arrived"] == queue["admitted"] + queue["dropped"]
    assert summary["completed"] == queue["admitted"]
    assert summary["completed"] == sum(g["completed"] for g in summary["per_gpu"])
    assert json.dumps(summary)  # JSON-serialisable


def test_fleet_conserves_requests_across_members(outcome):
    for gpu in outcome.summary["per_gpu"]:
        assert gpu["completed"] == gpu["assigned"] == gpu["launches"]
        assert gpu["metrics"]["completed"] == gpu["completed"]
        assert sum(gpu["tenant_assigned"].values()) == gpu["assigned"]


def test_fleet_spreads_load_with_least_loaded(outcome):
    completed = [gpu["completed"] for gpu in outcome.summary["per_gpu"]]
    assert max(completed) - min(completed) <= 1


def test_fleet_merged_metrics_match_member_totals(outcome):
    summary = outcome.summary
    merged = summary["latency_us"]["count"]
    members = sum(g["metrics"]["latency_us"]["count"] for g in summary["per_gpu"])
    # Warmup is wall-clock based and shared, so post-warmup counts add up.
    assert merged == members


def test_fleet_advances_member_clocks(outcome):
    assert outcome.simulated_time_us > 0
    assert outcome.simulated_time_us == pytest.approx(
        max(gpu["clock_us"] for gpu in outcome.summary["per_gpu"]), abs=1e-3
    )
    assert outcome.events_processed == sum(
        gpu["events_processed"] for gpu in outcome.summary["per_gpu"]
    )


def test_fleet_tenant_affinity_pins_tenants():
    outcome = run_fleet(fleet_scenario(router="tenant_affinity"))
    for gpu in outcome.summary["per_gpu"]:
        # Each member serves at most the tenants homed there; a tenant never
        # appears on two GPUs.
        assert len(gpu["tenant_assigned"]) <= 2
    homes: dict = {}
    for gpu in outcome.summary["per_gpu"]:
        for tenant in gpu["tenant_assigned"]:
            assert tenant not in homes
            homes[tenant] = gpu["gpu_id"]


def test_fleet_validation_rides_along():
    outcome = run_fleet(fleet_scenario(validate=True, horizon_us=12_000.0))
    assert outcome.validated
    assert outcome.violations == []


def test_fleet_trace_events_are_tagged_with_gpu_ids():
    outcome = run_fleet(fleet_scenario(trace=True, horizon_us=12_000.0))
    assert outcome.trace_events
    gpus = {event.attrs.get("gpu") for event in outcome.trace_events}
    assert gpus <= set(range(4))
    assert len(gpus) > 1  # more than one member actually traced
    seqs = [event.seq for event in outcome.trace_events]
    assert seqs == list(range(len(seqs)))


def test_fleet_scenario_runs_through_the_workload_runner():
    record = execute_scenario(fleet_scenario(horizon_us=12_000.0))
    summary = record.result.serving_summary
    assert summary is not None and summary["num_gpus"] == 4
    assert record.result.process_times_us == {}
    assert record.result.events_processed > 0
    assert json.loads(record.to_json())["serving"]["router"] == "least_loaded"


@pytest.mark.parametrize("jobs", [None, 2])
def test_fleet_epochs_never_reparse_the_scenario(monkeypatch, jobs):
    """The fleet parses its scenario once; epoch batches carry the parsed
    specs.  Worker processes fork after the patch, so a sharded batch that
    re-parsed would raise in its worker and fail the run."""
    expected = run_fleet(fleet_scenario(metrics={"interval_us": 2_000.0}))

    def from_dict(cls, payload):
        raise AssertionError("ScenarioSpec.from_dict called during a fleet run")

    monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(from_dict))
    scenario = fleet_scenario(metrics={"interval_us": 2_000.0})
    if jobs is None:
        outcome = run_fleet(scenario)
    else:
        with BatchRunner(jobs=jobs) as runner:
            outcome = run_fleet(scenario, runner=runner)
    assert outcome.epochs == 6
    assert outcome.summary == expected.summary
    assert outcome.metrics_rows == expected.metrics_rows
