"""Fleet fuzzing: seed-derived multi-GPU scenarios, serial vs sharded.

The synthetic fuzzer's ``cluster=True`` dimension attaches seed-derived
fleet sections (member count, router, epoch length) on top of the open-loop
arrival draws.  Every scenario runs with validation attached and must record
zero violations, and the fleet summary must be byte-identical whether the
epoch batches execute serially or across a
:class:`~repro.runner.BatchRunner` process pool — the cluster layer's core
guarantee — whether validation is attached or not, and whether metrics
are on or off.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cluster import run_fleet
from repro.cluster.spec import ClusterSpec
from repro.runner import BatchRunner
from repro.workloads.synthetic import CLUSTER_ROUTERS, generate_synthetic_scenario

FUZZ_SEEDS = list(range(25))


def _fuzz_scenario(seed: int):
    return generate_synthetic_scenario(
        seed,
        scale="smoke",
        validate=True,
        max_processes=4,
        cluster=True,
    )


def _summary_json(outcome) -> str:
    return json.dumps(outcome.summary, sort_keys=True)


@pytest.fixture(scope="module")
def serial_outcomes():
    return {seed: run_fleet(_fuzz_scenario(seed)) for seed in FUZZ_SEEDS}


def test_fuzz_covers_every_router_and_multiple_fleet_sizes():
    clusters = [ClusterSpec.from_scenario(_fuzz_scenario(seed)) for seed in FUZZ_SEEDS]
    assert {cluster.router for cluster in clusters} == set(CLUSTER_ROUTERS)
    assert len({cluster.num_gpus for cluster in clusters}) >= 3


def test_cluster_draws_do_not_disturb_open_loop_fields():
    for seed in FUZZ_SEEDS:
        open_loop = generate_synthetic_scenario(
            seed, scale="smoke", validate=True, max_processes=4, open_loop=True
        ).to_dict()
        clustered = _fuzz_scenario(seed).to_dict()
        assert clustered["cluster"] is not None
        clustered["cluster"] = None
        assert clustered == open_loop


def test_fuzzed_fleets_complete_their_admitted_load(serial_outcomes):
    for seed, outcome in serial_outcomes.items():
        summary = outcome.summary
        queue = summary["queue"]
        assert queue["arrived"] > 0, f"seed {seed} generated no arrivals"
        assert summary["completed"] == queue["admitted"], f"seed {seed}"
        assert summary["completed"] == sum(
            gpu["completed"] for gpu in summary["per_gpu"]
        ), f"seed {seed}"


def test_fuzzed_fleets_record_no_violations(serial_outcomes):
    for seed, outcome in serial_outcomes.items():
        assert outcome.validated, f"seed {seed}"
        assert outcome.violations == [], f"seed {seed}"


@pytest.mark.parametrize(
    "switch",
    [{"validate": False}, {"metrics": {}}],
    ids=["validation_off", "metrics_on"],
)
def test_validation_never_perturbs_fleet_runs(serial_outcomes, switch):
    for seed, validated in serial_outcomes.items():
        flipped = run_fleet(dataclasses.replace(_fuzz_scenario(seed), **switch))
        assert flipped.validated == switch.get("validate", True), f"seed {seed}"
        assert bool(flipped.metrics_rows) == ("metrics" in switch), f"seed {seed}"
        assert _summary_json(flipped) == _summary_json(validated), f"seed {seed}"
        assert flipped.events_processed == validated.events_processed, f"seed {seed}"


def test_sharded_fleets_are_byte_identical_to_serial(serial_outcomes):
    with BatchRunner(jobs=4) as runner:
        for seed, serial in serial_outcomes.items():
            sharded = run_fleet(_fuzz_scenario(seed), runner=runner)
            assert _summary_json(sharded) == _summary_json(serial), f"seed {seed}"
            assert sharded.events_processed == serial.events_processed, f"seed {seed}"
