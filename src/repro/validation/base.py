"""Invariant-validation primitives: violations, checkers and the hub.

Checkers are observers: :class:`InvariantChecker` subclasses
:class:`~repro.sim.observers.BaseObserver`, so the hook vocabulary is written
once, and each checker overrides only the hooks it needs.  The SMs, command
dispatcher and execution engine call those hooks directly (through one
:class:`~repro.sim.observers.CompositeObserver` per component when several
observers hear it).  Checkers assert the simulator's core conservation laws —
blocks complete exactly once, occupancy limits hold, preempted state
balances, per-process metrics are consistent — and *record*
:class:`Violation` values instead of raising, so a single run can surface
every broken invariant at once.  The :class:`ValidationHub` is their
container: it installs them, runs their end-of-run pass and collects the
violations.

Checkers must never mutate simulation state or schedule events: a run with
validation enabled is byte-identical to the same run without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.sim.observers import BaseObserver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.system import GPUSystem


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    #: Name of the checker that detected the violation.
    checker: str
    #: Short machine-readable invariant identifier (e.g. ``block_completed_twice``).
    invariant: str
    #: Simulation time at which the violation was detected (µs).
    time_us: float
    #: Human-readable description with the offending quantities.
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (stored in run records)."""
        return {
            "checker": self.checker,
            "invariant": self.invariant,
            "time_us": self.time_us,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"[{self.checker}/{self.invariant}] t={self.time_us:.3f}us: {self.message}"


class InvariantValidationError(AssertionError):
    """Raised by :meth:`ValidationHub.raise_if_violations` when checks failed."""

    def __init__(self, violations: List[Violation]):
        self.violations = violations
        lines = "\n".join(f"  - {violation}" for violation in violations)
        super().__init__(f"{len(violations)} invariant violation(s):\n{lines}")


class InvariantChecker(BaseObserver):
    """Base class for pluggable invariant checkers.

    Every hook defaults to the :class:`BaseObserver` no-op; subclasses
    override the ones they need and call :meth:`record` when an invariant is
    broken.  A checker instance belongs to exactly one run: :meth:`attach`
    binds it to the system under observation.
    """

    #: Checker name used in reports (defaults to the class name).
    name: str = ""

    def __init__(self) -> None:
        #: Violations recorded live, while the simulation executes.
        self.violations: List[Violation] = []
        #: Violations recorded by :meth:`finalize`; kept separate so the hub
        #: can re-run the end-of-run pass (e.g. after a second ``run()``
        #: segment) without duplicating previously reported findings.
        self.finalize_violations: List[Violation] = []
        self._in_finalize = False
        self._system: Optional["GPUSystem"] = None
        if not self.name:
            self.name = type(self).__name__

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, system: "GPUSystem") -> None:
        """Bind the checker to the system it observes."""
        self._system = system

    def finalize(self, system: "GPUSystem") -> None:
        """End-of-run hook: check global conservation laws."""

    @property
    def system(self) -> "GPUSystem":
        """The system under observation (only valid after :meth:`attach`)."""
        if self._system is None:
            raise RuntimeError(f"checker {self.name} is not attached to a system")
        return self._system

    def all_violations(self) -> List[Violation]:
        """Live and finalize-pass violations together."""
        return [*self.violations, *self.finalize_violations]

    def record(self, invariant: str, message: str, *, time_us: Optional[float] = None) -> None:
        """Record one violation (never raises)."""
        if time_us is None:
            time_us = self._system.simulator.now if self._system is not None else 0.0
        target = self.finalize_violations if self._in_finalize else self.violations
        target.append(
            Violation(checker=self.name, invariant=invariant, time_us=time_us, message=message)
        )


class ValidationHub:
    """The container of a run's invariant checkers.

    The hub is not an observer itself: :meth:`attach` installs its checkers
    on the system, and the hub runs their end-of-run pass and collects their
    violations.
    """

    def __init__(self, checkers: List[InvariantChecker]):
        self._checkers = list(checkers)
        self._system: Optional["GPUSystem"] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system: "GPUSystem") -> None:
        """Install every checker on the instrumented components of ``system``.

        One :meth:`~repro.system.GPUSystem.install_observer` call installs
        them all, so the checkers compose with other observers (e.g. a
        telemetry :class:`~repro.telemetry.TraceCollector`) instead of
        displacing them.
        """
        if self._system is not None:
            raise RuntimeError("a ValidationHub can only be attached once")
        self._system = system
        system.install_observer(*self._checkers)
        for checker in self._checkers:
            checker.attach(system)

    def detach(self) -> None:
        """Uninstall the checkers from the system they observe.

        Recorded violations (and :meth:`finalize`) stay available; the
        checkers simply stop receiving instrumentation callbacks.  Detaching is
        idempotent; a detached hub cannot be re-attached (checker state is
        bound to the original run).
        """
        if self._system is None:
            raise RuntimeError("cannot detach an unattached ValidationHub")
        self._system.uninstall_observer(*self._checkers)

    def finalize(self) -> None:
        """Run every checker's end-of-run pass.

        Re-runnable: a system whose ``run()`` is called in several segments
        finalizes after each one, and the finalize-pass findings are
        recomputed from scratch every time (previous ones are discarded, so
        nothing is duplicated and nothing from a later segment is missed).
        """
        if self._system is None:
            raise RuntimeError("cannot finalize an unattached ValidationHub")
        for checker in self._checkers:
            checker.finalize_violations.clear()
            checker._in_finalize = True
            try:
                checker.finalize(self._system)
            finally:
                checker._in_finalize = False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def checkers(self) -> List[InvariantChecker]:
        """The attached checkers."""
        return list(self._checkers)

    @property
    def violations(self) -> List[Violation]:
        """All recorded violations, ordered by simulation time."""
        collected = [v for checker in self._checkers for v in checker.all_violations()]
        return sorted(collected, key=lambda v: (v.time_us, v.checker, v.invariant))

    @property
    def ok(self) -> bool:
        """Whether no checker recorded a violation."""
        return all(not checker.all_violations() for checker in self._checkers)

    def to_dicts(self) -> List[Dict[str, Any]]:
        """All violations in JSON-serialisable form."""
        return [violation.to_dict() for violation in self.violations]

    def raise_if_violations(self) -> None:
        """Raise :class:`InvariantValidationError` if any check failed."""
        violations = self.violations
        if violations:
            raise InvariantValidationError(violations)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        violations = self.violations
        if not violations:
            return f"all {len(self._checkers)} invariant checkers passed"
        return f"{len(violations)} invariant violation(s) detected"
