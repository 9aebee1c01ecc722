"""Experiment harness: regenerates every table and figure of the paper.

Each experiment module exposes a ``run(config)`` function returning a result
object with structured rows plus a ``format()`` method that prints the same
rows/series the paper reports:

* :mod:`repro.experiments.table1` — Table 1 (kernel statistics).
* :mod:`repro.experiments.table2` — Table 2 (simulation parameters).
* :mod:`repro.experiments.figure2` — Figure 2 (scheduling timeline of a
  soft real-time kernel under FCFS / NPQ / PPQ).
* :mod:`repro.experiments.figure5` — Figure 5 (high-priority NTT improvement).
* :mod:`repro.experiments.figure6` — Figure 6 (STP degradation of PPQ).
* :mod:`repro.experiments.figure7` — Figure 7 (DSS: NTT, fairness, STP).
* :mod:`repro.experiments.figure8` — Figure 8 (ANTT across all workloads).
* :mod:`repro.experiments.preemption_latency` — per-mechanism preemption
  latency distributions (telemetry-measured).
* :mod:`repro.experiments.mechanism_choice` — the latency-vs-overhead
  tradeoff as a preemption-*controller* comparison (static endpoints vs
  hybrid/adaptive per-request selection).

Figures 5 and 6 read the priority grid and Figures 7 and 8 the DSS grid of
:mod:`repro.experiments.figure_data`, which collects each grid once for the
figures that share it.  An experiment adds its scenario runs to its
result's instrumentation totals with :meth:`ExperimentResult.count_runs`;
``figure2`` and ``fleet``, whose runs are not workload results, count their
own.

``repro-experiments`` (see :mod:`repro.experiments.cli`) runs them from the
command line; ``benchmarks/`` wraps each one in pytest-benchmark.
"""

from repro.experiments.base import ExperimentConfig, ExperimentResult

__all__ = ["ExperimentConfig", "ExperimentResult"]
