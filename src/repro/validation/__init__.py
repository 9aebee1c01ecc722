"""Runtime invariant validation for simulated runs.

Attach a :class:`ValidationHub` of pluggable :class:`InvariantChecker`
instances to a :class:`~repro.system.GPUSystem` (``GPUSystem(validate=True)``
or ``ScenarioSpec(validate=True)``) and every run asserts the simulator's
core conservation laws while it executes:

* every launched thread block completes exactly once,
* SM occupancy never exceeds the configured register / shared-memory /
  thread / block limits,
* context-switch state saved equals state restored (and drained SMs are
  empty before reassignment),
* each hardware queue has at most one command in flight,
* per-process iteration metrics are internally consistent.

(The engine itself raises rather than schedule or fire an event in the past.)

Checkers are observers (:class:`~repro.sim.observers.BaseObserver`
subclasses that override only their own hooks, and so are wired only into
the components that fire them); the hub is their container, installing
them on the system and collecting their findings.  Checkers
observe, they never perturb: a run with validation enabled produces
byte-identical results to the same run without it.  Violations are recorded
(not raised) and surfaced through :class:`repro.runner.RunRecord`.
"""

from repro.validation.base import (
    InvariantChecker,
    InvariantValidationError,
    ValidationHub,
    Violation,
)
from repro.validation.checkers import (
    BlockAccountingChecker,
    DispatchChecker,
    MetricsChecker,
    OccupancyChecker,
    PreemptionChecker,
    default_checkers,
)


def make_hub(checkers=None) -> ValidationHub:
    """A hub with the given checkers (default: every built-in checker)."""
    return ValidationHub(list(checkers) if checkers is not None else default_checkers())


__all__ = [
    "Violation",
    "InvariantChecker",
    "InvariantValidationError",
    "ValidationHub",
    "BlockAccountingChecker",
    "OccupancyChecker",
    "PreemptionChecker",
    "DispatchChecker",
    "MetricsChecker",
    "default_checkers",
    "make_hub",
]
