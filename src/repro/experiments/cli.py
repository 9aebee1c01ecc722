"""Command-line entry point: ``repro-experiments``.

Examples
--------
Run everything at the default reduced scale and print the tables::

    repro-experiments --all

Run a single experiment at smoke scale (fast), using 4 worker processes::

    repro-experiments --scale smoke --jobs 4 figure5

List the available experiments and registered components::

    repro-experiments --list

Emit machine-readable JSON instead of tables::

    repro-experiments figure5 --scale smoke --json

Write the results to a file (appending one section per experiment)::

    repro-experiments --all --output results.txt
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import figure_data
from repro.experiments import figure2, figure5, figure6, figure7, figure8, table1, table2
from repro.experiments import preemption_latency, synthetic
from repro.experiments import mechanism_choice
from repro.experiments import fleet as fleet_experiment
from repro.experiments import scale as scale_experiment
from repro.experiments import serving as serving_experiment
from repro.experiments import slo_preemption
from repro.experiments import trace_serving as trace_serving_experiment
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.registry import (
    ARRIVALS,
    CONTROLLERS,
    MECHANISMS,
    POLICIES,
    ROUTERS,
    TRACE_SOURCES,
    TRANSFER_POLICIES,
)

#: Experiment name -> runner.  The figures of :data:`FIGURE_GRIDS` also accept
#: their grid's shared data as ``data=``; :func:`run_selected` passes it (and
#: counts its runs once), while a figure run alone collects and counts its own.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "figure2": figure2.run,
    "figure5": figure5.run,
    "figure6": figure6.run,
    "figure7": figure7.run,
    "figure8": figure8.run,
    "synthetic": synthetic.run,
    "preemption_latency": preemption_latency.run,
    "mechanism_choice": mechanism_choice.run,
    "scale": scale_experiment.run,
    "serving": serving_experiment.run,
    "fleet": fleet_experiment.run,
    "slo_preemption": slo_preemption.run,
    "trace_serving": trace_serving_experiment.run,
}


#: Figure -> the shared grid it reads (see :mod:`repro.experiments.figure_data`)
#: and the schemes it needs from that grid.
FIGURE_GRIDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "figure5": ("priority", figure_data.FIGURE5_SCHEMES),
    "figure6": ("priority", figure_data.GRIDS["priority"]),
    "figure7": ("dss", figure_data.GRIDS["dss"]),
    "figure8": ("dss", figure_data.GRIDS["dss"]),
}


def experiment_descriptions() -> Dict[str, str]:
    """Experiment name -> one-line description (the module docstring)."""
    descriptions = {}
    for name, runner in EXPERIMENTS.items():
        doc = sys.modules[runner.__module__].__doc__ or ""
        descriptions[name] = doc.strip().splitlines()[0].rstrip(".") if doc else ""
    return descriptions


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of 'Enabling Preemptive "
        "Multiprogramming on GPUs' (ISCA 2014).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"experiments to run: {', '.join(EXPERIMENTS)} (use --all for everything)",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiments and registered policies/mechanisms, then exit",
    )
    parser.add_argument(
        "--scale",
        default="reduced",
        choices=["full", "reduced", "smoke"],
        help="workload scale preset (default: reduced)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        nargs="*",
        default=None,
        help="process counts to evaluate (default: 2 4 6 8)",
    )
    parser.add_argument(
        "--workloads", type=int, default=None, help="random workloads per process count"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="parallel simulation worker processes (0 = all CPUs, default: 1)",
    )
    parser.add_argument("--seed", type=int, default=2014, help="workload generation seed")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="attach the runtime invariant-validation layer to every simulated "
        "scenario/system run (observers only; printed results are byte-identical); "
        "exits non-zero if any invariant violation is detected",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="attach the telemetry subsystem (repro.telemetry) to every simulated "
        "run: per-scenario Chrome trace artifacts go to --trace-dir and a one-line "
        "summary is printed to stderr (printed results are byte-identical)",
    )
    parser.add_argument(
        "--trace-dir",
        default="traces",
        help="directory for per-scenario Chrome trace artifacts (default: traces; "
        "only used with --trace)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print wall time, simulator events processed and events/sec to stderr "
        "after the run, followed by a per-phase breakdown (one phase per "
        "experiment or shared data collection); stdout stays byte-identical; "
        "composes with --validate/--trace/--metrics; event totals cover the "
        "instrumented scenario runs, including serving and fleet runs",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="attach the runtime metrics hub (repro.obs) to every simulated run: "
        "counters/gauges/histograms snapshotted on sim-time boundaries; "
        "per-scenario JSONL series go to --metrics-out and a one-line summary "
        "is printed to stderr (printed results are byte-identical)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="US",
        help="sim-time snapshot interval in microseconds (default: hub default; "
        "only used with --metrics)",
    )
    parser.add_argument(
        "--metrics-out",
        default="metrics",
        metavar="DIR",
        help="directory for per-scenario metrics JSONL series (default: metrics; "
        "only used with --metrics)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of tables"
    )
    parser.add_argument("--output", default=None, help="write results to this file as well")
    return parser


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Translate parsed CLI arguments into an experiment configuration.

    Raises :class:`ValueError` on invalid values; explicit-but-falsy values
    (e.g. an empty ``--processes``) are rejected rather than silently
    ignored.
    """
    base = ExperimentConfig(scale=args.scale, seed=args.seed)
    updates = {}
    if args.processes is not None:
        if not args.processes:
            raise ValueError("--processes needs at least one value")
        if any(count < 1 for count in args.processes):
            raise ValueError("--processes values must be positive integers")
        updates["process_counts"] = tuple(args.processes)
    if args.workloads is not None:
        if args.workloads < 1:
            raise ValueError("--workloads must be a positive integer")
        updates["workloads_per_count"] = args.workloads
    if args.jobs < 0:
        raise ValueError("--jobs must be a non-negative integer (0 = all CPUs)")
    updates["jobs"] = args.jobs
    updates["validate"] = bool(getattr(args, "validate", False))
    updates["trace"] = bool(getattr(args, "trace", False))
    if updates["trace"]:
        updates["trace_dir"] = getattr(args, "trace_dir", None)
    updates["metrics"] = bool(getattr(args, "metrics", False))
    if updates["metrics"]:
        interval = getattr(args, "metrics_interval", None)
        if interval is not None:
            if interval <= 0:
                raise ValueError("--metrics-interval must be a positive number")
            updates["metrics_interval_us"] = interval
        updates["metrics_dir"] = getattr(args, "metrics_out", None)
    elif getattr(args, "metrics_interval", None) is not None:
        raise ValueError("--metrics-interval requires --metrics")
    import dataclasses

    return dataclasses.replace(base, **updates)


def run_selected(
    names: List[str],
    config: ExperimentConfig,
    *,
    profiler: Optional["PhaseProfiler"] = None,
) -> Tuple[List[ExperimentResult], int, Tuple[int, int], int]:
    """Run the selected experiments, sharing simulation data where possible.

    Figures 5-8 read one of two shared grids (:data:`FIGURE_GRIDS`).  Each
    grid is collected once, on the first figure that reads it, with every
    scheme the selected figures need, and its runs are counted into that
    figure's result.  The totals below are then sums over the results alone.

    Returns the results, the total number of invariant violations detected
    across every simulated run (always 0 unless ``config.validate`` attached
    the checkers — and 0 then too, for a correct simulator), the
    ``(traced runs, trace events)`` telemetry totals (non-zero only with
    ``config.trace`` or trace-driven experiments like ``preemption_latency``),
    and the total simulator events processed across the counted runs
    (consumed by ``--profile``).

    ``profiler`` (a :class:`repro.obs.PhaseProfiler`) records one phase per
    experiment and per grid collection (``priority_data``, ``dss_data``);
    each phase carries the simulator events it processed, so serving and
    fleet runs show up with real event counts, not zeros.
    """
    if profiler is None:
        from repro.obs import PhaseProfiler  # local: keeps import cheap

        profiler = PhaseProfiler()
    needed: Dict[str, set] = {}
    for name in names:
        if name in FIGURE_GRIDS:
            grid, schemes = FIGURE_GRIDS[name]
            needed.setdefault(grid, set()).update(schemes)
    grids: Dict[str, figure_data.FigureData] = {}
    results: List[ExperimentResult] = []
    for name in names:
        started = time.time()
        if name in FIGURE_GRIDS:
            grid = FIGURE_GRIDS[name][0]
            collected = grid not in grids
            if collected:
                schemes = [s for s in figure_data.GRIDS[grid] if s in needed[grid]]
                with profiler.phase(f"{grid}_data") as record:
                    grids[grid] = figure_data.collect(grid, config, schemes=schemes)
                    record.events = sum(
                        run.events_processed for run in grids[grid].results.values()
                    )
            data = grids[grid]
            with profiler.phase(name):
                result = EXPERIMENTS[name](config, data=data)
            if collected:
                result.count_runs(data.results.values())
        else:
            with profiler.phase(name) as record:
                result = EXPERIMENTS[name](config)
                record.events = result.events_processed
        result.notes.append(f"Wall-clock time: {time.time() - started:.1f} s")
        results.append(result)
    return (
        results,
        sum(result.violation_count for result in results),
        (
            sum(result.traced_run_count for result in results),
            sum(result.trace_event_count for result in results),
        ),
        sum(result.events_processed for result in results),
    )


def format_listing() -> str:
    """Human-readable listing of experiments and registered components."""
    lines = ["Experiments:"]
    for name, description in experiment_descriptions().items():
        lines.append(f"  {name:<10} {description}")
    for title, registry in (
        ("Scheduling policies", POLICIES),
        ("Preemption mechanisms", MECHANISMS),
        ("Preemption controllers", CONTROLLERS),
        ("Transfer scheduling policies", TRANSFER_POLICIES),
        ("Arrival processes", ARRIVALS),
        ("Cluster routers", ROUTERS),
        ("Trace sources", TRACE_SOURCES),
    ):
        lines.append("")
        lines.append(f"{title}:")
        for name, description in registry.describe().items():
            entry = registry.entry(name)
            aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
            lines.append(f"  {name:<15} {description}{aliases}")
    return "\n".join(lines)


def _unknown_experiment_message(unknown: List[str]) -> str:
    message = f"unknown experiment(s): {', '.join(unknown)}"
    suggestions = []
    for name in unknown:
        suggestions.extend(difflib.get_close_matches(name, EXPERIMENTS, n=1, cutoff=0.4))
    if suggestions:
        message += f" (did you mean: {', '.join(dict.fromkeys(suggestions))}?)"
    return message


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(format_listing())
        return 0
    names = list(args.experiments)
    if args.all:
        names = list(EXPERIMENTS.keys())
    if not names:
        parser.print_help()
        return 2
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(_unknown_experiment_message(unknown))
    try:
        config = make_config(args)
    except ValueError as exc:
        parser.error(str(exc))

    from repro.obs import PhaseProfiler  # local: keeps import cheap

    profiler = PhaseProfiler()
    results, violation_total, (traced_runs, trace_events), events_total = run_selected(
        names, config, profiler=profiler
    )
    if args.json:
        text = json.dumps([result.to_dict() for result in results], indent=2)
    else:
        output_chunks = [result.format() for result in results]
        text = ("\n\n" + "=" * 78 + "\n\n").join(output_chunks)
    print(text)
    if args.output:
        # Text tables append one section per run; JSON must stay one document.
        mode = "w" if args.json else "a"
        with open(args.output, mode, encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.profile:
        # stderr only: stdout stays byte-identical so enabling --profile never
        # perturbs archived results.  First line keeps the legacy single-line
        # shape; per-phase lines follow.  Composes with --validate, --trace
        # and --metrics (each keeps its own line).
        print(profiler.format(total_events=events_total), file=sys.stderr)
    if args.metrics:
        # stderr only, same contract as --trace: stdout stays byte-identical.
        summary = f"metrics: {len(results)} experiment(s) instrumented"
        if config.metrics_dir and os.path.isdir(config.metrics_dir):
            summary += f" -> {config.metrics_dir}"
        print(summary, file=sys.stderr)
    if args.trace or traced_runs:
        # stderr only: stdout stays byte-identical so enabling --trace never
        # perturbs archived results.  One line, composing with --validate.
        summary = (
            f"trace: {trace_events} event(s) across {traced_runs} traced run(s)"
        )
        # Name the artifact directory only when something was exported there
        # (experiments that trace in-process, e.g. figure2, stay summary-only).
        if args.trace and os.path.isdir(args.trace_dir):
            summary += f" -> {args.trace_dir}"
        if args.validate:
            summary += f"; {violation_total} invariant violation(s)"
        print(summary, file=sys.stderr)
    if violation_total:
        # stderr + exit code only: stdout stays byte-identical so enabling
        # --validate never perturbs archived results.
        print(
            f"ERROR: {violation_total} invariant violation(s) detected; re-run "
            "the offending scenario with repro.validation for details",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
