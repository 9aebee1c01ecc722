"""Tests for the repro-experiments command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, format_listing, main, make_config


def test_parser_knows_every_experiment():
    parser = build_parser()
    args = parser.parse_args(["table1", "table2"])
    assert args.experiments == ["table1", "table2"]
    assert set(EXPERIMENTS) == {
        "table1", "table2", "figure2", "figure5", "figure6", "figure7", "figure8",
        "synthetic", "preemption_latency", "mechanism_choice", "scale",
        "serving", "fleet", "slo_preemption", "trace_serving",
    }


def test_make_config_applies_overrides():
    parser = build_parser()
    args = parser.parse_args(["table1", "--scale", "smoke", "--processes", "2", "4",
                              "--workloads", "3", "--seed", "7"])
    config = make_config(args)
    assert config.scale == "smoke"
    assert config.process_counts == (2, 4)
    assert config.workloads_per_count == 3
    assert config.seed == 7


def test_make_config_applies_validate():
    parser = build_parser()
    assert make_config(parser.parse_args(["synthetic", "--validate"])).validate is True
    assert make_config(parser.parse_args(["synthetic"])).validate is False


def test_make_config_applies_trace():
    parser = build_parser()
    config = make_config(parser.parse_args(["synthetic", "--trace"]))
    assert config.trace is True
    assert config.trace_dir == "traces"
    config = make_config(
        parser.parse_args(["synthetic", "--trace", "--trace-dir", "out"])
    )
    assert config.trace_dir == "out"
    config = make_config(parser.parse_args(["synthetic"]))
    assert config.trace is False
    assert config.trace_dir is None  # --trace-dir without --trace is inert


def test_main_trace_writes_artifacts_and_stderr_summary(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exit_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7",
         "--trace", "--trace-dir", str(tmp_path / "tr")]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Synthetic" in captured.out
    assert "traced run(s)" in captured.err
    assert str(tmp_path / "tr") in captured.err
    artifacts = list((tmp_path / "tr").iterdir())
    assert len(artifacts) == 2
    assert all(p.name.endswith(".trace.json") for p in artifacts)


def test_main_trace_and_validate_compose(capsys, tmp_path, monkeypatch):
    """--validate and --trace together: both observers, one stderr line."""
    monkeypatch.chdir(tmp_path)
    exit_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7",
         "--trace", "--trace-dir", str(tmp_path / "tr"), "--validate"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    (summary_line,) = captured.err.strip().splitlines()
    assert "traced run(s)" in summary_line
    assert "0 invariant violation(s)" in summary_line
    # stdout is identical to the untraced run (tracing never perturbs; the
    # synthetic table's Violations column is --validate's, so keep it on;
    # the wall-clock note is nondeterministic either way, so strip it).
    plain_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7", "--validate"]
    )
    plain = capsys.readouterr()
    assert plain_code == 0

    def strip_wallclock(text):
        return [line for line in text.splitlines() if "Wall-clock" not in line]

    assert strip_wallclock(plain.out) == strip_wallclock(captured.out)


def test_main_runs_synthetic_experiment_with_validation(capsys):
    exit_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7", "--validate"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "Synthetic" in out
    assert "0 violation(s) across 2 runs" in out


def test_main_exits_nonzero_when_violations_detected(capsys, monkeypatch):
    import repro.validation as validation_module
    from repro.validation import InvariantChecker, ValidationHub

    class AlwaysFiring(InvariantChecker):
        name = "always_firing"

        def finalize(self, system) -> None:
            self.record("forced", "corrupted checker fixture")

    monkeypatch.setattr(
        validation_module, "make_hub", lambda: ValidationHub([AlwaysFiring()])
    )
    exit_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "1", "--seed", "3", "--validate"]
    )
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "invariant violation(s) detected" in captured.err
    # stdout still renders the table; only stderr/exit code carry the failure.
    assert "Synthetic" in captured.out


def test_main_runs_table_experiments(capsys, tmp_path):
    output = tmp_path / "results.txt"
    exit_code = main(["table1", "table2", "--scale", "smoke", "--output", str(output)])
    assert exit_code == 0
    printed = capsys.readouterr().out
    assert "Table 1" in printed
    assert "Table 2" in printed
    assert output.read_text().count("Table") >= 2


def test_main_without_experiments_shows_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_main_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_unknown_experiment_suggests_close_match(capsys):
    with pytest.raises(SystemExit):
        main(["figre5"])
    assert "did you mean: figure5" in capsys.readouterr().err


def test_make_config_rejects_falsy_and_invalid_values():
    parser = build_parser()
    with pytest.raises(ValueError, match="--processes needs at least one value"):
        make_config(parser.parse_args(["table1", "--processes"]))
    with pytest.raises(ValueError, match="--processes values must be positive"):
        make_config(parser.parse_args(["table1", "--processes", "0"]))
    with pytest.raises(ValueError, match="--workloads must be a positive"):
        make_config(parser.parse_args(["table1", "--workloads", "0"]))
    with pytest.raises(ValueError, match="--jobs"):
        make_config(parser.parse_args(["table1", "--jobs", "-1"]))


def test_make_config_applies_jobs():
    parser = build_parser()
    config = make_config(parser.parse_args(["figure5", "--jobs", "3"]))
    assert config.jobs == 3
    # 0 = all CPUs, resolved by the BatchRunner.
    config = make_config(parser.parse_args(["figure5", "--jobs", "0"]))
    assert config.make_batch_runner().jobs >= 1


def test_main_list_prints_experiments_and_components(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in printed
    for component in ("fcfs", "ppq_shared", "dss", "context_switch", "draining"):
        assert component in printed


def test_main_list_prints_controllers_with_descriptions_and_aliases(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out
    assert "Preemption controllers:" in printed
    for controller, alias in (
        ("static", "fixed"),
        ("hybrid", "deadline"),
        ("adaptive", "cost_model"),
    ):
        assert controller in printed
        assert alias in printed
    # Descriptions ride along (first docstring line of each controller).
    assert "Deadline-bounded draining" in printed


def test_main_list_prints_trace_sources(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out
    assert "Trace sources:" in printed
    for source in ("azure_faas", "pareto_burst", "lognormal_diurnal"):
        assert source in printed
    assert "faas" in printed  # alias rides along


def test_unknown_controller_errors_with_close_match_suggestion():
    from repro.registry import CONTROLLERS, UnknownComponentError
    from repro.scenario import SchemeSpec

    with pytest.raises(UnknownComponentError, match="did you mean: hybrid"):
        CONTROLLERS.entry("hybird")
    with pytest.raises(UnknownComponentError, match="preemption controller"):
        SchemeSpec(policy="ppq", controller="magic").validate()


def test_main_json_output(capsys, tmp_path):
    output = tmp_path / "results.json"
    exit_code = main(["table2", "--scale", "smoke", "--json", "--output", str(output)])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["name"] == "Table 2"
    assert payload[0]["rows"]
    assert json.loads(output.read_text())[0]["name"] == "Table 2"
    # Running again must overwrite, not append (the file stays valid JSON).
    assert main(["table2", "--scale", "smoke", "--json", "--output", str(output)]) == 0
    assert json.loads(output.read_text())[0]["name"] == "Table 2"


def test_main_with_jobs_runs_parallel(capsys):
    exit_code = main(
        ["figure5", "--scale", "smoke", "--jobs", "2", "--processes", "2",
         "--seed", "7"]
    )
    assert exit_code == 0
    assert "Figure 5" in capsys.readouterr().out


def test_scale_experiment_is_registered():
    assert "scale" in EXPERIMENTS
    assert "scale" in format_listing()


def test_main_profile_prints_stderr_line_and_keeps_stdout_identical(capsys):
    exit_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7", "--profile"]
    )
    profiled = capsys.readouterr()
    assert exit_code == 0
    assert profiled.err.startswith("profile: wall ")
    assert "events/s" in profiled.err
    plain_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7"]
    )
    plain = capsys.readouterr()
    assert plain_code == 0
    assert plain.err == ""
    # stdout is byte-identical with and without --profile.
    assert profiled.out == plain.out


def test_main_profile_composes_with_validate(capsys):
    exit_code = main(
        ["synthetic", "--scale", "smoke", "--workloads", "2", "--seed", "7",
         "--profile", "--validate"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "profile: wall " in captured.err


def test_run_selected_collects_each_grid_once_and_counts_it_once(monkeypatch):
    from repro.experiments import figure_data
    from repro.experiments.base import ExperimentConfig
    from repro.experiments.cli import run_selected

    calls = []
    collect = figure_data.collect

    def recording_collect(grid, config, *, schemes):
        calls.append((grid, tuple(schemes)))
        return collect(grid, config, schemes=schemes)

    monkeypatch.setattr(figure_data, "collect", recording_collect)
    config = ExperimentConfig(
        scale="smoke",
        process_counts=(2,),
        workloads_per_benchmark=1,
        workloads_per_count=2,
        benchmarks=("lbm", "sad"),
        trace=True,
        validate=True,
    )
    results, violations, (traced, trace_events), events = run_selected(
        ["figure5", "figure8", "figure7"], config
    )
    # Figure 5 alone needs four priority schemes; the DSS grid runs once for
    # both of its figures.
    assert calls == [
        ("priority", figure_data.FIGURE5_SCHEMES),
        ("dss", figure_data.GRIDS["dss"]),
    ]
    figure5_result, figure8_result, figure7_result = results
    # Each grid's runs count once, into the figure that collected it.
    assert figure5_result.traced_run_count == 2 * 4
    assert figure8_result.traced_run_count == 2 * 3
    assert figure7_result.traced_run_count == 0
    assert figure7_result.events_processed == 0
    assert traced == 2 * 4 + 2 * 3
    assert violations == 0
    assert trace_events == sum(r.trace_event_count for r in results) > 0
    assert events == sum(r.events_processed for r in results) > 0


@pytest.mark.parametrize(
    "name, runs", [("figure5", 2 * 4), ("figure6", 2 * 6), ("figure7", 2 * 3), ("figure8", 2 * 3)]
)
def test_a_standalone_figure_counts_the_runs_it_collects(name, runs):
    from repro.experiments.base import ExperimentConfig

    config = ExperimentConfig(
        scale="smoke",
        process_counts=(2,),
        workloads_per_benchmark=1,
        workloads_per_count=2,
        benchmarks=("lbm", "sad"),
        trace=True,
        validate=True,
    )
    result = EXPERIMENTS[name](config)
    assert result.traced_run_count == runs
    assert result.violation_count == 0
    assert result.trace_event_count > 0
    assert result.events_processed > 0
