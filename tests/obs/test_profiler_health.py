"""Self-profiler and health-reporter tests, plus the CLI integration."""

from __future__ import annotations

import io
import json
import re

import pytest

from repro.obs import EventLoopProfiler, HealthReporter, PhaseProfiler
from repro.sim.events import Event
from repro.system import GPUSystem
from repro.workloads.synthetic import generate_synthetic_scenario

#: The legacy single-line --profile shape; the first PhaseProfiler line must
#: keep matching it so existing log scrapers survive.
LEGACY_PROFILE_LINE = re.compile(
    r"^profile: wall \d+\.\d{2} s, \d+ event\(s\) processed, [\d,]+ events/s$"
)


# ----------------------------------------------------------------------
# EventLoopProfiler
# ----------------------------------------------------------------------
def _run_system(scenario, *, profile=False):
    system = GPUSystem.from_scenario(scenario)
    profiler = None
    if profile:
        profiler = EventLoopProfiler()
        system.install_observer(profiler)
    system.run(stop_after_min_iterations=2)
    return system, profiler


def test_event_loop_profiler_attributes_all_events():
    scenario = generate_synthetic_scenario(5, scale="smoke")
    system, profiler = _run_system(scenario, profile=True)
    assert profiler.total_events == system.simulator.events_processed
    assert profiler.total_wall_s >= 0.0
    # Kinds are normalized: no digit runs survive in any kind label.
    assert all(not re.search(r"[0-9]", kind) for kind in profiler.kind_count)
    top = profiler.top(3)
    assert len(top) <= 3
    assert [entry[1] for entry in top] == sorted(
        (entry[1] for entry in top), reverse=True
    )
    report = profiler.format()
    assert report.startswith("profile: event kinds:")


def test_event_loop_profiler_never_perturbs_results():
    scenario = generate_synthetic_scenario(7, scale="smoke")
    plain, _ = _run_system(scenario)
    profiled, _ = _run_system(scenario, profile=True)
    assert profiled.mean_iteration_times_us() == plain.mean_iteration_times_us()
    assert profiled.simulator.events_processed == plain.simulator.events_processed


def test_event_loop_profiler_installs_like_any_observer():
    scenario = generate_synthetic_scenario(5, scale="smoke")
    system = GPUSystem.from_scenario(scenario)
    profiler = EventLoopProfiler()
    system.install_observer(profiler)
    # It hears only the simulator's hook: no other component is observed.
    assert system.simulator.observer is profiler
    assert system.execution_engine.observer is None
    assert all(sm.observer is None for sm in system.execution_engine.sms())
    with pytest.raises(ValueError, match="already installed"):
        system.install_observer(profiler)
    system.uninstall_observer(profiler)
    assert system.simulator.observer is None


def test_event_loop_profiler_charges_each_event_until_the_next_fires():
    ticks = iter([1.0, 3.0, 7.0])
    profiler = EventLoopProfiler(clock=lambda: next(ticks))
    for label in ("sm1.wave", "sm2.wave", "kernel3.done"):
        profiler.on_event_fired(Event(0.0, 0, 0, lambda: None, label), 0.0)
    # smN.wave ran from 1 to 3 and from 3 to 7; the last event is counted
    # but not timed.
    assert profiler.kind_wall_s == {"smN.wave": 6.0, "kernelN.done": 0.0}
    assert profiler.kind_count == {"smN.wave": 2, "kernelN.done": 1}


# ----------------------------------------------------------------------
# PhaseProfiler
# ----------------------------------------------------------------------
def test_phase_profiler_first_line_keeps_legacy_shape():
    profiler = PhaseProfiler()
    with profiler.phase("alpha") as record:
        record.events = 120
    with profiler.phase("beta"):
        pass
    text = profiler.format()
    first, *rest = text.splitlines()
    assert LEGACY_PROFILE_LINE.match(first), first
    assert any("phase alpha" in line and "120 event(s)" in line for line in rest)
    assert any("phase beta" in line for line in rest)
    # total_events overrides the phase sum (cache-backed experiments).
    assert "345 event(s) processed" in profiler.format(total_events=345)
    assert profiler.events == 120


# ----------------------------------------------------------------------
# HealthReporter
# ----------------------------------------------------------------------
def _fake_clock(start=100.0):
    state = {"now": start}

    def clock():
        state["now"] += 2.0
        return state["now"]

    return clock


def test_health_reporter_renders_progress_eta_and_checkpoint_age():
    stream = io.StringIO()
    reporter = HealthReporter(horizon_us=10_000.0, stream=stream, clock=_fake_clock())
    reporter.note_checkpoint(1_000.0)
    row = {
        "t_us": 2_500.0,
        "metrics": {"serving.arrived": 40, "serving.completed": 30},
    }
    line = reporter.heartbeat(row)
    assert stream.getvalue() == line + "\n"
    assert reporter.lines_emitted == 1
    assert "t=2500us (25% of horizon)" in line
    assert "offered=40 served=30" in line
    assert "ckpt_age=1500us" in line
    assert "eta=" in line


def test_health_reporter_rejects_bad_horizon():
    with pytest.raises(ValueError):
        HealthReporter(horizon_us=0.0)


def test_serving_heartbeat_spec_emits_health_lines(capsys):
    from repro.serving.driver import run_serving

    from test_hub import make_serving_scenario

    scenario = make_serving_scenario(
        metrics={"interval_us": 2_000.0, "heartbeat": True}
    )
    outcome = run_serving(scenario)
    err = capsys.readouterr().err
    health_lines = [line for line in err.splitlines() if line.startswith("health:")]
    assert health_lines, err
    assert len(health_lines) == len(outcome.metrics_rows)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
def test_make_config_applies_metrics_flags():
    from repro.experiments.cli import build_parser, make_config

    parser = build_parser()
    config = make_config(parser.parse_args(["synthetic", "--metrics"]))
    assert config.metrics is True
    assert config.metrics_dir == "metrics"
    assert config.metrics_interval_us is None
    assert config.metrics_spec() == {}
    config = make_config(
        parser.parse_args(
            ["synthetic", "--metrics", "--metrics-interval", "250", "--metrics-out", "m"]
        )
    )
    assert config.metrics_interval_us == 250.0
    assert config.metrics_dir == "m"
    assert config.metrics_spec() == {"interval_us": 250.0}
    config = make_config(parser.parse_args(["synthetic"]))
    assert config.metrics is False
    assert config.metrics_spec() is None
    with pytest.raises(ValueError):
        make_config(parser.parse_args(["synthetic", "--metrics-interval", "250"]))
    with pytest.raises(ValueError):
        make_config(
            parser.parse_args(["synthetic", "--metrics", "--metrics-interval", "0"])
        )


def test_cli_metrics_writes_artifacts_and_keeps_stdout_identical(
    capsys, tmp_path, monkeypatch
):
    from repro.experiments.cli import main

    monkeypatch.chdir(tmp_path)
    args = ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7"]
    assert main(list(args)) == 0
    plain = capsys.readouterr()
    assert (
        main(
            args
            + [
                "--metrics",
                "--metrics-interval",
                "50",
                "--metrics-out",
                str(tmp_path / "m"),
                "--profile",
            ]
        )
        == 0
    )
    observed = capsys.readouterr()

    def strip_wallclock(text):
        return [line for line in text.splitlines() if "Wall-clock" not in line]

    assert strip_wallclock(observed.out) == strip_wallclock(plain.out)
    # --profile: legacy first line plus per-phase breakdown, stderr only.
    err_lines = observed.err.splitlines()
    assert LEGACY_PROFILE_LINE.match(err_lines[0]), err_lines[0]
    assert any("phase synthetic" in line for line in err_lines)
    assert any(line.startswith("metrics:") for line in err_lines)
    artifacts = list((tmp_path / "m").iterdir())
    assert artifacts and all(p.name.endswith(".metrics.jsonl") for p in artifacts)
    from repro.obs import read_jsonl

    series = read_jsonl(str(sorted(artifacts)[0]))
    assert series["rows"]
    assert all("t_us" in row for row in series["rows"])


def test_cli_profile_reports_serving_events(capsys):
    """Satellite: --profile shows real event counts for serving runs."""
    from repro.experiments.cli import main

    assert main(["serving", "--scale", "smoke", "--profile"]) == 0
    err = capsys.readouterr().err
    first = err.splitlines()[0]
    assert LEGACY_PROFILE_LINE.match(first), first
    events = int(first.split(" s, ")[1].split(" event(s)")[0])
    assert events > 0
    phase_line = next(line for line in err.splitlines() if "phase serving" in line)
    assert re.search(r"\d+ event\(s\)", phase_line)
