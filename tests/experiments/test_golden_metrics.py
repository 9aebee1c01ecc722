"""Golden-metrics regression tests for the paper's Figures 5-8.

The per-scheme summary numbers of Figures 5 and 6 (the priority grid) and
Figures 7 and 8 (the DSS grid) at a fixed smoke configuration are frozen
into ``tests/golden/``.  The simulation is fully
deterministic, so these must match *exactly*: any hot-path refactor that
silently drifts results (event ordering, float accumulation order, policy
tie-breaking) fails here instead of shipping skewed figures.

To regenerate after an *intentional* modelling change, run this module's
``regenerate()`` helper and commit the updated fixtures together with an
explanation of the drift.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import figure5, figure6, figure7, figure8, figure_data
from repro.experiments.base import ExperimentConfig

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

#: The frozen configuration: small enough for CI, large enough to exercise
#: every scheme (including the shared-access PPQ variants of Figure 6) and
#: ten random DSS workloads.
GOLDEN_CONFIG = ExperimentConfig(
    scale="smoke",
    process_counts=(2,),
    workloads_per_benchmark=1,
    seed=2014,
    benchmarks=("lbm", "spmv", "sad"),
)

#: Figure -> (the grid it reads, its module).
FIGURES = {
    "figure5": ("priority", figure5),
    "figure6": ("priority", figure6),
    "figure7": ("dss", figure7),
    "figure8": ("dss", figure8),
}


def _summary(name: str, data) -> dict:
    result = FIGURES[name][1].run(GOLDEN_CONFIG, data=data)
    return {"headers": list(result.headers), "rows": [list(row) for row in result.rows]}


@pytest.fixture(scope="module")
def shared_data():
    """One collect() per grid, shared by its figures (the expensive part)."""
    grids = {}

    def data(grid: str):
        if grid not in grids:
            grids[grid] = figure_data.collect(grid, GOLDEN_CONFIG)
        return grids[grid]

    return data


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_summaries_match_golden_fixtures(name, shared_data):
    computed = _summary(name, shared_data(FIGURES[name][0]))
    fixture_path = GOLDEN_DIR / f"{name}_smoke.json"
    golden = json.loads(fixture_path.read_text())
    # Round-trip the computed values through JSON so the comparison uses the
    # exact representation stored in the fixture (e.g. tuples -> lists).
    assert json.loads(json.dumps(computed)) == golden, (
        f"{name} summary drifted from {fixture_path}; if the modelling change "
        "is intentional, regenerate the fixture (see module docstring)"
    )


def test_golden_fixtures_have_rows():
    for name in FIGURES:
        golden = json.loads((GOLDEN_DIR / f"{name}_smoke.json").read_text())
        assert golden["rows"], f"{name} fixture is empty"


@pytest.fixture(scope="module")
def static_shared_data():
    """One collect() with every scheme wrapped in an explicit static controller."""
    import dataclasses

    # Bare controller="static" adopts each scheme's mechanism at bind time.
    static_schemes = tuple(
        dataclasses.replace(figure_data.SCHEME_SPECS[name], controller="static")
        for name in figure_data.GRIDS["priority"]
    )
    return figure_data.collect("priority", GOLDEN_CONFIG, schemes=static_schemes)


@pytest.mark.parametrize("name", ["figure5", "figure6"])
def test_static_controller_reproduces_golden_fixtures_byte_identically(
    name, static_shared_data
):
    """Backward-compat proof for the preemption-controller redesign.

    Wrapping every priority scheme's mechanism in an explicit ``static``
    controller must reproduce the controller-less golden output exactly —
    the fixtures on disk, unchanged.
    """
    computed = _summary(name, static_shared_data)
    golden = json.loads((GOLDEN_DIR / f"{name}_smoke.json").read_text())
    assert json.loads(json.dumps(computed)) == golden


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden fixtures from the current simulator output."""
    data = {grid: figure_data.collect(grid, GOLDEN_CONFIG) for grid in figure_data.GRIDS}
    for name, (grid, _) in FIGURES.items():
        payload = _summary(name, data[grid])
        path = GOLDEN_DIR / f"{name}_smoke.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"regenerated {path}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
