"""Property-style fuzz tests: every generated scenario obeys every invariant.

A seeded loop over 50 generated scenarios, spread across every scheduling
policy × preemption mechanism × preemption controller combination, runs each
scenario with the full invariant-validation layer attached and asserts zero
violations — plus the fuzzer's reproducibility contract: the same seed
always yields byte-identical ScenarioSpec JSON — and the validation layer's
own contract: its observers never perturb the run, so every scenario's
record is byte-identical with validation on and off.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import execute_scenario
from repro.scenario import SchemeSpec
from repro.workloads.synthetic import (
    SCHEME_CONTROLLERS,
    SCHEME_MECHANISMS,
    SCHEME_POLICIES,
    generate_synthetic_scenario,
)

FUZZ_SEEDS = list(range(50))
COMBOS = [
    (policy, mechanism, controller)
    for policy in SCHEME_POLICIES
    for mechanism in SCHEME_MECHANISMS
    for controller in SCHEME_CONTROLLERS
]


def _scheme_for_seed(seed: int) -> SchemeSpec:
    policy, mechanism, controller = COMBOS[seed % len(COMBOS)]
    controller_options = {}
    if controller == "hybrid":
        # Spread budgets from "always falls back" to "always drains".
        controller_options["drain_budget_us"] = [0.0, 2.0, 10.0, 40.0][seed % 4]
    return SchemeSpec(
        policy=policy,
        mechanism=mechanism,
        transfer_policy="npq" if seed % 2 else "fcfs",
        controller=controller,
        controller_options=controller_options,
        name=f"{policy}_{mechanism}_{controller or 'none'}",
    )


def _fuzz_scenario(seed: int, validate: bool = True):
    return generate_synthetic_scenario(
        seed,
        scale="smoke",
        validate=validate,
        scheme=_scheme_for_seed(seed),
        max_processes=4,
    )


def test_fuzz_covers_every_policy_mechanism_controller_combination():
    covered = {
        (s.scheme.policy, s.scheme.mechanism, s.scheme.controller)
        for s in (_fuzz_scenario(seed) for seed in FUZZ_SEEDS)
    }
    assert covered == set(COMBOS)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_generated_scenario_passes_every_invariant_checker(seed):
    record = execute_scenario(_fuzz_scenario(seed))
    assert record.result.validated
    assert record.ok, (
        f"seed {seed} ({record.scenario.describe()}) violated invariants: "
        f"{record.violations}"
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_validation_never_perturbs_the_run(seed):
    def run_artifacts(validate):
        payload = execute_scenario(_fuzz_scenario(seed, validate=validate)).to_dict()
        for key in ("scenario", "validated", "violations"):
            payload.pop(key)
        return json.dumps(payload, sort_keys=True)

    assert run_artifacts(True) == run_artifacts(False), (
        f"seed {seed}: validated run diverged from the plain run"
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_same_seed_yields_byte_identical_spec_json(seed):
    first = _fuzz_scenario(seed).to_json()
    second = _fuzz_scenario(seed).to_json()
    assert first == second
    # And without the forced scheme, the fully seed-derived spec is stable too.
    assert (
        generate_synthetic_scenario(seed, scale="smoke").to_json()
        == generate_synthetic_scenario(seed, scale="smoke").to_json()
    )


def test_distinct_seeds_produce_distinct_scenarios():
    specs = {generate_synthetic_scenario(seed, scale="smoke").to_json() for seed in FUZZ_SEEDS}
    # Seeds may occasionally collide on coarse dimensions but never on the
    # application names, so every spec is unique.
    assert len(specs) == len(FUZZ_SEEDS)
