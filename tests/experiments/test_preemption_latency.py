"""Golden-pinned tests for the preemption-latency experiment.

The per-scheme p50/p95/max latencies at a fixed smoke configuration (fixed
synthetic seed, fixed Parboil subset) are frozen into ``tests/golden/``.
The simulation and the telemetry analytics are deterministic, so these must
match exactly: any drift in preemption timing, event emission or percentile
arithmetic fails here instead of shipping skewed latency claims.

To regenerate after an *intentional* modelling change, run this module
directly (``python tests/experiments/test_preemption_latency.py``) and
commit the updated fixture with an explanation of the drift.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import preemption_latency
from repro.experiments.base import ExperimentConfig

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
FIXTURE = GOLDEN_DIR / "preemption_latency_smoke.json"

#: Fixed configuration: small enough for CI, preemption-rich enough to pin
#: meaningful distributions for both mechanisms and both workload sources.
GOLDEN_CONFIG = ExperimentConfig(
    scale="smoke",
    process_counts=(2,),
    workloads_per_benchmark=1,
    workloads_per_count=3,
    seed=2014,
    benchmarks=("lbm", "spmv", "sad"),
)


def _compute():
    result = preemption_latency.run(GOLDEN_CONFIG)
    return {"headers": list(result.headers), "rows": [list(row) for row in result.rows]}


@pytest.fixture(scope="module")
def result():
    return preemption_latency.run(GOLDEN_CONFIG)


def test_latencies_match_golden_fixture(result):
    computed = {
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
    }
    golden = json.loads(FIXTURE.read_text())
    assert json.loads(json.dumps(computed)) == golden, (
        f"preemption latencies drifted from {FIXTURE}; if the modelling "
        "change is intentional, regenerate the fixture (see module docstring)"
    )


def test_every_source_and_mechanism_has_preemptions(result):
    rows = result.row_dicts()
    assert {(row["Workloads"], row["Mechanism"]) for row in rows} == {
        ("parboil", "context_switch"),
        ("parboil", "draining"),
        ("synthetic", "context_switch"),
        ("synthetic", "draining"),
    }
    for row in rows:
        assert row["Preemptions"] > 0, f"no preemptions measured for {row}"
        assert 0.0 < row["p50 (us)"] <= row["p95 (us)"] <= row["max (us)"]


def test_cdf_series_are_sorted_samples(result):
    for key, samples in result.series.items():
        assert key.startswith("latencies/")
        assert samples == sorted(samples)
        assert all(latency >= 0.0 for latency in samples)
    for row in result.rows:
        source, scheme = row[0], row[1]
        assert len(result.series[f"latencies/{source}/{scheme}"]) == row[3]


def test_context_switch_latency_is_bounded_draining_is_not(result):
    """The paper's qualitative claim, checked quantitatively (Sec. 3.2)."""
    by_key = {(row[0], row[2]): row for row in result.rows}
    for source in ("parboil", "synthetic"):
        cs_row = by_key[(source, "context_switch")]
        drain_row = by_key[(source, "draining")]
        # The context switch's p95/p50 spread stays tight (bounded save
        # time); draining's tail is governed by remaining block time.
        cs_spread = cs_row[5] / cs_row[4]
        drain_spread = drain_row[5] / drain_row[4]
        assert drain_spread > cs_spread


def test_traced_run_accounting(result):
    assert result.traced_run_count > 0
    assert result.trace_event_count > 0
    assert result.violation_count == 0


def test_static_controller_reproduces_golden_fixture_byte_identically(monkeypatch):
    """Backward-compat proof for the preemption-controller redesign.

    Re-running the experiment with both schemes wrapped in an explicit
    ``static`` controller must reproduce the controller-less golden fixture
    exactly — the fixture on disk, unchanged.
    """
    import dataclasses

    from repro.experiments import figure_data

    for name in preemption_latency.SCHEMES:
        scheme = figure_data.SCHEME_SPECS[name]
        # Bare controller="static" adopts the scheme's mechanism at bind time.
        monkeypatch.setitem(
            figure_data.SCHEME_SPECS,
            name,
            dataclasses.replace(scheme, controller="static"),
        )
    computed = _compute()
    golden = json.loads(FIXTURE.read_text())
    assert json.loads(json.dumps(computed)) == golden


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden fixture from the current simulator output."""
    FIXTURE.write_text(json.dumps(_compute(), indent=2, sort_keys=True) + "\n")
    print(f"regenerated {FIXTURE}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
