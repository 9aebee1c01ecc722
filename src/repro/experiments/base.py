"""Shared infrastructure for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.config import SystemConfig
from repro.utils.tables import format_table
from repro.workloads.multiprogram import WorkloadRunner
from repro.workloads.scale import WorkloadScale


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by every experiment.

    The defaults run the *reduced* scale (see
    :class:`~repro.workloads.scale.WorkloadScale`); tests and pytest
    benchmarks use :meth:`smoke` so a single experiment completes in seconds.
    """

    #: Workload scale preset name ("full", "reduced" or "smoke").
    scale: str = "reduced"
    #: Multiprogramming degrees to evaluate (paper: 2, 4, 6, 8).
    process_counts: Tuple[int, ...] = (2, 4, 6, 8)
    #: Priority workloads per benchmark and process count (Figures 5/6).
    workloads_per_benchmark: int = 1
    #: Random workloads per process count (Figures 7/8).
    workloads_per_count: int = 10
    #: Seed of the random workload generator.
    seed: int = 2014
    #: Optional subset of benchmarks (None = all ten).
    benchmarks: Optional[Tuple[str, ...]] = None
    #: Parallel simulation worker processes (1 = serial, 0 = all CPUs).
    jobs: int = 1
    #: Attach the runtime invariant-validation layer to every simulated run.
    #: Checkers observe, never perturb: results stay byte-identical.
    validate: bool = False
    #: Attach the telemetry subsystem to every simulated run.  Collectors
    #: observe, never perturb: printed results stay byte-identical; trace
    #: summaries ride on the run records and artifacts go to ``trace_dir``.
    trace: bool = False
    #: Directory for per-scenario Chrome trace artifacts (``None`` keeps
    #: traced runs summary-only).  Only used when ``trace`` is enabled.
    trace_dir: Optional[str] = None
    #: Attach the metrics hub to every simulated run.  Like validation and
    #: telemetry, metrics observe, never perturb: results stay byte-identical.
    metrics: bool = False
    #: Sim-time snapshot interval in microseconds (``None`` = hub default).
    #: Only used when ``metrics`` is enabled.
    metrics_interval_us: Optional[float] = None
    #: Directory for per-scenario metrics JSONL series (``None`` keeps
    #: metric runs in-memory only).  Only used when ``metrics`` is enabled.
    metrics_dir: Optional[str] = None

    def workload_scale(self) -> WorkloadScale:
        """The resolved workload scale preset."""
        return WorkloadScale.by_name(self.scale)

    def make_runner(self, config: Optional[SystemConfig] = None) -> WorkloadRunner:
        """Create a workload runner at this experiment's scale."""
        return WorkloadRunner(scale=self.workload_scale(), config=config)

    def make_batch_runner(self) -> "BatchRunner":
        """Create a batch runner honouring ``jobs`` (and artifact dirs)."""
        from repro.runner import BatchRunner  # local: keeps import cheap

        return BatchRunner(
            jobs=self.jobs,
            trace_dir=self.trace_dir if self.trace else None,
            metrics_dir=self.metrics_dir if self.metrics else None,
        )

    def metrics_spec(self) -> Optional[dict]:
        """The ``ScenarioSpec.metrics`` mapping for this configuration.

        ``None`` when metrics are disabled, so scenario construction can pass
        the result straight through: ``metrics=config.metrics_spec()``.
        """
        if not self.metrics:
            return None
        spec: dict = {}
        if self.metrics_interval_us is not None:
            spec["interval_us"] = self.metrics_interval_us
        return spec

    @classmethod
    def smoke(cls) -> "ExperimentConfig":
        """A configuration small enough for unit tests and CI benchmarks."""
        return cls(
            scale="smoke",
            process_counts=(2, 4),
            workloads_per_benchmark=1,
            workloads_per_count=3,
            benchmarks=("lbm", "spmv", "sgemm", "histo", "tpacf", "sad"),
        )

    @classmethod
    def reduced(cls) -> "ExperimentConfig":
        """The default reduced-scale configuration."""
        return cls()

    @classmethod
    def full(cls) -> "ExperimentConfig":
        """The paper-scale configuration (hours of simulation in Python)."""
        return cls(scale="full", workloads_per_benchmark=2, workloads_per_count=15)


@dataclass
class ExperimentResult:
    """Structured result of one experiment."""

    name: str
    description: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    #: Free-form notes (deviations, scale used, ...), printed under the table.
    notes: List[str] = field(default_factory=list)
    #: Machine-readable extras (per-series data for plotting or assertions).
    series: Dict[str, object] = field(default_factory=dict)
    #: Invariant violations detected across the experiment's simulated runs
    #: (only populated when the experiment ran with ``config.validate``; the
    #: CLI turns a non-zero total into a non-zero exit code).  Deliberately
    #: kept out of :meth:`format`/:meth:`to_dict` so enabling validation
    #: never changes the rendered output.
    violation_count: int = 0
    #: Telemetry totals across the experiment's simulated runs (populated
    #: when the experiment ran with ``config.trace``; the CLI reports them on
    #: stderr).  Like ``violation_count``, kept out of
    #: :meth:`format`/:meth:`to_dict` so enabling tracing never changes the
    #: rendered output.
    traced_run_count: int = 0
    trace_event_count: int = 0
    #: Simulator events processed across the experiment's own scenario runs
    #: (populated by record-based experiments; the CLI's ``--profile`` flag
    #: aggregates it together with the shared figure caches).  Kept out of
    #: :meth:`format`/:meth:`to_dict` like the other instrumentation totals.
    events_processed: int = 0

    def format(self) -> str:
        """Render the result as an aligned plain-text table."""
        table = format_table(self.headers, self.rows, title=f"{self.name}: {self.description}")
        if self.notes:
            notes = "\n".join(f"  - {note}" for note in self.notes)
            return f"{table}\n\nNotes:\n{notes}"
        return table

    def row_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries keyed by header (for tests)."""
        return [dict(zip(self.headers, row)) for row in self.rows]

    def to_dict(self, *, include_series: bool = False) -> Dict[str, object]:
        """JSON-serialisable form (used by the CLI's ``--json`` output)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }
        if include_series:
            payload["series"] = _jsonable(self.series)
        return payload


def _jsonable(value):
    """Best-effort conversion of experiment series data to JSON-safe values."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (used for ratio aggregation)."""
    if not values:
        raise ValueError("geometric mean of an empty sequence")
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Arithmetic mean (kept here so experiments read uniformly)."""
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)
