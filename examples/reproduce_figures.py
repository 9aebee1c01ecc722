#!/usr/bin/env python3
"""Reproduce the paper's tables and figures from Python (not the CLI).

This example drives the experiment harness programmatically — the same code
path as the ``repro-experiments`` command — at the *smoke* scale so it
finishes in a few minutes, and prints every table/figure.  Use the CLI with
``--scale reduced`` (or ``full``) for higher-fidelity runs.

Run with:  python examples/reproduce_figures.py
"""

from __future__ import annotations

import dataclasses
import os

from repro.experiments import figure5, figure7, figure_data, table1, table2
from repro.experiments.base import ExperimentConfig


def main() -> None:
    config = dataclasses.replace(
        ExperimentConfig.smoke(),
        process_counts=(2, 4),
        workloads_per_count=3,
        benchmarks=("lbm", "spmv", "sgemm", "tpacf", "histo", "sad"),
        # The (workload x scheme) grid runs through a BatchRunner; use every
        # core (identical results to a serial run, just faster).
        jobs=os.cpu_count() or 1,
    )

    print(table1.run(config).format())
    print()
    print(table2.run(config).format())
    print()

    print("Simulating priority workloads (Figure 5)...")
    priority_cache = figure_data.collect(
        "priority", config, schemes=figure_data.FIGURE5_SCHEMES
    )
    print(figure5.run(config, data=priority_cache).format())
    print()

    print("Simulating equal-sharing workloads (Figure 7)...")
    dss_cache = figure_data.collect("dss", config)
    print(figure7.run(config, data=dss_cache).format())


if __name__ == "__main__":
    main()
