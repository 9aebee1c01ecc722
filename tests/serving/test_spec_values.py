"""Malformed serving and fleet spec values fail at parse time, naming their key.

Counts, seeds and priorities must be ``int`` (not ``bool``); horizons,
windows, epochs and SLO budgets finite and positive; the warm-up finite and
in ``[0, horizon)``.  Each ``@example`` is a value the parser once truncated
or misread (``max_inflight: 2.7`` ran as 2, ``seed: true`` as seed 1,
``window_us: NaN`` died mid-run, ``epoch_us: NaN`` ran one epoch).
"""

from __future__ import annotations

import copy
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import ClusterSpec
from repro.experiments.base import ExperimentConfig
from repro.experiments.fleet import fleet_scenario
from repro.experiments.serving import serving_scenario
from repro.scenario import ScenarioSpec
from repro.serving.driver import ServingSpec

CONFIG = ExperimentConfig(scale="smoke")
SERVING = serving_scenario(CONFIG, load="heavy")
FLEET = fleet_scenario(CONFIG, router="least_loaded")
HORIZON_US = SERVING.arrivals["horizon_us"]

NOT_INT = st.one_of(st.booleans(), st.floats(), st.text(max_size=2), st.none())
COUNT = st.one_of(NOT_INT, st.integers(max_value=0))
NOT_DURATION = st.one_of(
    st.booleans(),
    st.floats(max_value=0.0),
    st.sampled_from([math.inf, math.nan]),
    st.text(max_size=2),
)
WARMUP = st.one_of(
    st.booleans(),
    st.floats(max_value=0.0, exclude_max=True),
    st.floats(min_value=HORIZON_US),
    st.just(math.nan),
    st.text(max_size=2),
)

#: (section, path inside it) -> (key the error names, malformed values).
CASES = {
    ("arrivals", ("queue_capacity",)): ("queue_capacity", COUNT),
    ("arrivals", ("max_inflight",)): ("max_inflight", COUNT),
    ("arrivals", ("reservoir_capacity",)): ("reservoir_capacity", COUNT),
    ("arrivals", ("metrics_seed",)): ("metrics_seed", NOT_INT),
    ("arrivals", ("tenants", 0, "seed")): ("tenants[0].seed", NOT_INT),
    ("arrivals", ("tenants", 0, "priority")): ("tenants[0].priority", NOT_INT),
    ("arrivals", ("tenants", 1, "slo_us")): ("tenants[1].slo_us", NOT_DURATION),
    ("arrivals", ("horizon_us",)): ("horizon_us", NOT_DURATION),
    ("arrivals", ("window_us",)): ("window_us", NOT_DURATION),
    ("arrivals", ("warmup_us",)): ("warmup_us", WARMUP),
    ("slo", ("default",)): ("slo['default']", NOT_DURATION),
    ("cluster", ("num_gpus",)): ("num_gpus", COUNT),
    ("cluster", ("epoch_us",)): ("epoch_us", NOT_DURATION),
}


def parse_with(where, value):
    """Parse the serving (or, for ``cluster``, fleet) scenario with one value set."""
    section, path = where
    payload = copy.deepcopy((FLEET if section == "cluster" else SERVING).to_dict())
    target = payload[section]
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    scenario = ScenarioSpec.from_dict(payload)
    if section == "cluster":
        return ClusterSpec.from_scenario(scenario)
    return ServingSpec.from_scenario(scenario)


def test_the_unmodified_scenarios_parse():
    assert ServingSpec.from_scenario(SERVING).max_inflight == 4
    assert ClusterSpec.from_scenario(FLEET).num_gpus == 4


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CASES)).flatmap(
        lambda where: st.tuples(st.just(where), CASES[where][1])
    )
)
@example((("arrivals", ("max_inflight",)), 2.7))
@example((("arrivals", ("queue_capacity",)), 2.5))
@example((("arrivals", ("tenants", 0, "priority")), 2.9))
@example((("arrivals", ("tenants", 0, "seed")), True))
@example((("arrivals", ("metrics_seed",)), 1.9))
@example((("arrivals", ("tenants", 1, "slo_us")), -5))
@example((("arrivals", ("horizon_us",)), math.inf))
@example((("arrivals", ("window_us",)), math.nan))
@example((("arrivals", ("horizon_us",)), math.nan))
@example((("cluster", ("epoch_us",)), math.nan))
@example((("cluster", ("num_gpus",)), 2.5))
@example((("cluster", ("num_gpus",)), True))
def test_malformed_value_is_rejected_naming_its_key(case):
    where, value = case
    key = CASES[where][0]
    with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
        parse_with(where, value)
