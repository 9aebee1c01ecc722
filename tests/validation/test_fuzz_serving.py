"""Open-loop fuzzing: 50 seed-derived serving scenarios, fully validated.

The synthetic fuzzer's ``open_loop=True`` dimension attaches seed-derived
arrival/SLO sections (process kind, rate, burstiness, admission policy,
inflight bound) to the usual seed-derived multiprogram shapes.  Every
scenario runs with the invariant-validation layer attached and must record
zero violations; the whole batch must be byte-identical whether executed
serially or across worker processes, and each run must be byte-identical to
its unvalidated twin.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import BatchRunner, execute_scenario
from repro.workloads.synthetic import (
    ARRIVAL_ADMISSIONS,
    ARRIVAL_KINDS,
    generate_synthetic_scenario,
)

FUZZ_SEEDS = list(range(50))


def _fuzz_scenario(seed: int, validate: bool = True):
    return generate_synthetic_scenario(
        seed,
        scale="smoke",
        validate=validate,
        max_processes=4,
        open_loop=True,
    )


@pytest.fixture(scope="module")
def serial_records():
    return BatchRunner(jobs=1).run([_fuzz_scenario(seed) for seed in FUZZ_SEEDS])


def test_fuzz_covers_every_arrival_kind_and_admission_policy():
    scenarios = [_fuzz_scenario(seed) for seed in FUZZ_SEEDS]
    kinds = {
        tenant["process"]
        for scenario in scenarios
        for tenant in scenario.arrivals["tenants"]
    }
    admissions = {scenario.arrivals["admission"] for scenario in scenarios}
    assert kinds == set(ARRIVAL_KINDS)
    assert admissions == set(ARRIVAL_ADMISSIONS)


def test_open_loop_draws_do_not_disturb_closed_loop_fields():
    for seed in FUZZ_SEEDS:
        closed = generate_synthetic_scenario(
            seed, scale="smoke", max_processes=4
        ).to_dict()
        opened = _fuzz_scenario(seed).to_dict()
        assert opened["arrivals"] is not None and opened["slo"] is not None
        opened["arrivals"] = opened["slo"] = None
        closed["validate"] = True  # the only intentionally different knob
        assert opened == closed


def test_same_seed_yields_byte_identical_open_loop_spec_json():
    for seed in FUZZ_SEEDS[:10]:
        assert _fuzz_scenario(seed).to_json() == _fuzz_scenario(seed).to_json()


def test_every_open_loop_scenario_passes_every_invariant_checker(serial_records):
    for seed, record in zip(FUZZ_SEEDS, serial_records):
        assert record.result.validated
        assert record.ok, (
            f"seed {seed} ({record.scenario.describe()}) violated invariants: "
            f"{record.violations}"
        )
        summary = record.result.serving_summary
        assert summary is not None
        queue = summary["queue"]
        assert queue["arrived"] == queue["admitted"] + queue["dropped"]
        assert summary["completed"] == queue["admitted"]


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_validation_never_perturbs_open_loop_runs(seed, serial_records):
    def run_artifacts(record):
        payload = record.to_dict()
        for key in ("scenario", "validated", "violations"):
            payload.pop(key)
        return json.dumps(payload, sort_keys=True)

    validated = serial_records[FUZZ_SEEDS.index(seed)]
    plain = execute_scenario(_fuzz_scenario(seed, validate=False))
    assert run_artifacts(validated) == run_artifacts(plain), (
        f"seed {seed}: validated serving run diverged from the plain run"
    )


def test_parallel_batch_is_byte_identical_to_serial(serial_records):
    parallel_records = BatchRunner(jobs=4).run(
        [_fuzz_scenario(seed) for seed in FUZZ_SEEDS]
    )
    for seed, serial, parallel in zip(FUZZ_SEEDS, serial_records, parallel_records):
        assert serial.to_json() == parallel.to_json(), (
            f"seed {seed}: parallel serving run diverged from the serial run"
        )
