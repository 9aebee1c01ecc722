"""Declarative, JSON-round-trippable scenario specifications.

A *scenario* is one independent, deterministic simulation of the paper's
evaluation grid: a multiprogrammed workload (which applications, which one is
high-priority) run under a *scheme* (scheduling policy + preemption mechanism
+ transfer policy) at a workload scale, with optional hardware-configuration
overrides and run bounds.  Scenarios are frozen dataclasses that round-trip
through plain dictionaries / JSON, which makes them trivial to generate in
bulk, ship to worker processes (:class:`repro.runner.BatchRunner`) and
archive next to results.

>>> from repro.scenario import SchemeSpec, ScenarioSpec
>>> scheme = SchemeSpec(name="ppq_cs", policy="ppq", mechanism="context_switch",
...                     transfer_policy="npq")
>>> spec = ScenarioSpec(scheme=scheme, applications=("mri-q", "lbm"),
...                     high_priority_index=0, scale="smoke")
>>> ScenarioSpec.from_dict(spec.to_dict()) == spec
True

:meth:`repro.system.GPUSystem.from_scenario` is the canonical constructor
that turns a scenario into a runnable system.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.gpu.config import SystemConfig
from repro.registry import CONTROLLERS, MECHANISMS, POLICIES, TRANSFER_POLICIES

#: Priority assigned to the high-priority process of priority workloads.
HIGH_PRIORITY = 10
#: Priority of every other process.
NORMAL_PRIORITY = 0
#: Start-time stagger between consecutive processes (µs) — avoids every
#: process hitting the driver at the exact same instant.
DEFAULT_START_STAGGER_US = 0.1
#: Safety bound on events per simulated scenario (livelock guard).
DEFAULT_MAX_EVENTS = 50_000_000


# ----------------------------------------------------------------------
# Configuration overrides
# ----------------------------------------------------------------------
def apply_config_overrides(config: SystemConfig, overrides: Mapping[str, Any]) -> SystemConfig:
    """Apply a (possibly nested) override mapping to a :class:`SystemConfig`.

    Top-level keys name ``SystemConfig`` fields; mappings assigned to
    dataclass-valued fields (``gpu``, ``pcie``, ``cpu``, ``scheduler``) are
    applied field-by-field.  Lists are coerced to tuples so overrides survive
    a JSON round-trip.
    """
    if not overrides:
        return config
    updates: Dict[str, Any] = {}
    for key, value in overrides.items():
        if not any(f.name == key for f in dataclasses.fields(config)):
            raise ValueError(f"unknown SystemConfig field in overrides: {key!r}")
        current = getattr(config, key)
        if dataclasses.is_dataclass(current) and isinstance(value, Mapping):
            sub_updates = {
                sub_key: tuple(sub_value) if isinstance(sub_value, list) else sub_value
                for sub_key, sub_value in value.items()
            }
            try:
                updates[key] = dataclasses.replace(current, **sub_updates)
            except TypeError as exc:
                raise ValueError(f"invalid override for {key!r}: {exc}") from exc
        else:
            updates[key] = tuple(value) if isinstance(value, list) else value
    return dataclasses.replace(config, **updates)


def config_to_overrides(
    config: SystemConfig, base: Optional[SystemConfig] = None
) -> Dict[str, Any]:
    """Compute the override mapping turning ``base`` into ``config``.

    The inverse of :func:`apply_config_overrides`; used to serialise a custom
    :class:`SystemConfig` into a :class:`ScenarioSpec`.
    """
    base = base if base is not None else SystemConfig()
    overrides: Dict[str, Any] = {}
    for top in dataclasses.fields(SystemConfig):
        value, base_value = getattr(config, top.name), getattr(base, top.name)
        if value == base_value:
            continue
        if dataclasses.is_dataclass(value):
            overrides[top.name] = {
                sub.name: getattr(value, sub.name)
                for sub in dataclasses.fields(value)
                if getattr(value, sub.name) != getattr(base_value, sub.name)
            }
        else:
            overrides[top.name] = value
    return overrides


def _canonicalize(value: Any) -> Any:
    """Deep-convert mappings/sequences to plain dicts/lists (JSON shape).

    Specs store options and overrides in their JSON-canonical form so that
    equality survives a serialisation round-trip (tuples would otherwise
    come back as lists and compare unequal).
    """
    if isinstance(value, Mapping):
        return {key: _canonicalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(item) for item in value]
    return value


def _freeze_options(options: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return _canonicalize(options or {})


def _reject_unknown_keys(cls, payload: Mapping[str, Any]) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")


# ----------------------------------------------------------------------
# SchemeSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class SchemeSpec:
    """One scheduling scheme: policy + mechanism + controller + options.

    Component names are registry names (aliases accepted); they are resolved
    lazily at build time so specs can be created before custom components are
    registered.  Instances are frozen but not hashable (``policy_options`` is
    a dict); key schemes by :attr:`name`.

    ``controller`` selects the preemption controller consulted per preemption
    request (:data:`repro.registry.CONTROLLERS`); ``None`` — the default and
    the backward-compatible path — resolves to the ``static`` controller
    wrapping :attr:`mechanism`, reproducing the legacy one-mechanism
    behaviour byte-identically.  For dynamic controllers (``hybrid``,
    ``adaptive``) the :attr:`mechanism` still names the default/fallback
    mechanism (e.g. for restores of blocks whose evictor is unknown).
    """

    policy: str
    mechanism: str = "context_switch"
    transfer_policy: str = "fcfs"
    policy_options: Mapping[str, Any] = field(default_factory=dict)
    #: Preemption-controller registry name (``None`` = static/:attr:`mechanism`).
    controller: Optional[str] = None
    #: Keyword options for the controller factory (e.g. ``drain_budget_us``).
    controller_options: Mapping[str, Any] = field(default_factory=dict)
    #: Display / lookup name (defaults to ``policy`` + ``mechanism`` or,
    #: with a controller, ``policy`` + ``controller``).
    name: Optional[str] = None

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.policy or not isinstance(self.policy, str):
            raise ValueError("policy must be a non-empty string")
        if not self.mechanism or not isinstance(self.mechanism, str):
            raise ValueError("mechanism must be a non-empty string")
        if self.controller is not None and (
            not self.controller or not isinstance(self.controller, str)
        ):
            raise ValueError("controller must be None or a non-empty string")
        transfer = self.transfer_policy
        if isinstance(transfer, enum.Enum):  # accept TransferSchedulingPolicy
            object.__setattr__(self, "transfer_policy", transfer.value)
        elif not transfer or not isinstance(transfer, str):
            raise ValueError("transfer_policy must be a non-empty string")
        object.__setattr__(self, "policy_options", _freeze_options(self.policy_options))
        object.__setattr__(
            self, "controller_options", _freeze_options(self.controller_options)
        )
        if self.controller is None and self.controller_options:
            raise ValueError("controller_options are only valid with a controller name")

    @property
    def label(self) -> str:
        """The scheme's display name."""
        if self.name is not None:
            return self.name
        if self.controller is not None:
            return f"{self.policy}_{self.controller}"
        return f"{self.policy}_{self.mechanism}"

    # ------------------------------------------------------------------
    # Component construction (via the registries)
    # ------------------------------------------------------------------
    def validate(self) -> "SchemeSpec":
        """Check every component name against the registries; return self."""
        POLICIES.entry(self.policy)
        MECHANISMS.entry(self.mechanism)
        if self.controller is not None:
            CONTROLLERS.entry(self.controller)
        TRANSFER_POLICIES.entry(self.transfer_policy)
        return self

    def build_policy(self, **extra_options):
        """Instantiate the scheduling policy (``extra_options`` win)."""
        options = dict(self.policy_options)
        options.update(extra_options)
        return POLICIES.create(self.policy, **options)

    def build_mechanism(self):
        """Instantiate the (default/fallback) preemption mechanism."""
        return MECHANISMS.create(self.mechanism)

    def build_controller(self):
        """Instantiate the preemption controller (``None`` = static default)."""
        if self.controller is None:
            return None
        return CONTROLLERS.create(self.controller, **dict(self.controller_options))

    def build_transfer_policy(self):
        """Resolve the transfer-engine scheduling policy."""
        return TRANSFER_POLICIES.create(self.transfer_policy)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        return {
            "policy": self.policy,
            "mechanism": self.mechanism,
            "transfer_policy": self.transfer_policy,
            "policy_options": dict(self.policy_options),
            "controller": self.controller,
            "controller_options": dict(self.controller_options),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SchemeSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        _reject_unknown_keys(cls, payload)
        return cls(**payload)

    def to_json(self) -> str:
        """JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SchemeSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# ScenarioSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=True)
class ScenarioSpec:
    """One complete simulation scenario (workload × scheme × configuration)."""

    #: The scheduling scheme to simulate under.
    scheme: SchemeSpec
    #: Benchmark names, one per process, in start order.
    applications: Tuple[str, ...]
    #: Index into ``applications`` of the high-priority process (or ``None``).
    high_priority_index: Optional[int] = None
    #: Identifier used in reports (workload number within its generation).
    workload_id: int = 0
    #: Workload scale preset name (``full``, ``reduced`` or ``smoke``).
    scale: str = "reduced"
    #: Nested overrides applied to the default :class:`SystemConfig`.
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Completed iterations per process before the run stops
    #: (``None`` = the scale preset's default).
    min_iterations: Optional[int] = None
    #: Event bound for the run (``None`` = :data:`DEFAULT_MAX_EVENTS`).
    max_events: Optional[int] = None
    #: Start-time stagger between consecutive processes, µs.
    start_stagger_us: float = DEFAULT_START_STAGGER_US
    #: Priority values given to the high-priority / remaining processes.
    high_priority: int = HIGH_PRIORITY
    normal_priority: int = NORMAL_PRIORITY
    #: Attach the runtime invariant-validation layer (:mod:`repro.validation`)
    #: to the run.  Checkers observe, never perturb: results are byte-identical
    #: with and without validation; detected violations are surfaced through
    #: :class:`repro.runner.RunRecord`.
    validate: bool = False
    #: Attach the telemetry subsystem (:mod:`repro.telemetry`) to the run.
    #: The collector observes, never perturbs: results are byte-identical with
    #: and without tracing; the trace summary (and exported artifact paths)
    #: are surfaced through :class:`repro.runner.RunRecord`.
    trace: bool = False
    #: Open-loop serving configuration (``None`` = classic closed-loop run).
    #: A mapping with ``horizon_us`` plus optional admission/tenant settings;
    #: see :class:`repro.serving.ServingSpec` for the accepted keys.  When
    #: set, the scenario runs through :func:`repro.serving.run_serving`
    #: instead of replaying processes to a minimum iteration count.
    arrivals: Optional[Mapping[str, Any]] = None
    #: Per-tenant latency budgets (µs) for SLO-violation counting: keys are
    #: process names (``app#slot``), application names or ``"default"``.
    slo: Optional[Mapping[str, Any]] = None
    #: Multi-GPU fleet configuration (``None`` = single-GPU run).  A mapping
    #: with ``num_gpus`` plus optional ``router``/``router_options``/
    #: ``epoch_us``; see :class:`repro.cluster.ClusterSpec` for the accepted
    #: keys.  Requires an ``arrivals=`` section: the fleet serves the same
    #: open-loop request streams, routed across member GPUs.
    cluster: Optional[Mapping[str, Any]] = None
    #: Runtime-observability configuration (``None`` = metrics off).  A
    #: mapping with optional ``interval_us`` (snapshot cadence in simulated
    #: µs), ``heartbeat`` and ``histogram_growth`` keys; see
    #: :func:`repro.obs.resolve_metrics_spec`.  The metrics layer observes,
    #: never perturbs: run results are byte-identical with metrics on or
    #: off; snapshot series are exported as separate JSONL artifacts.
    metrics: Optional[Mapping[str, Any]] = None

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "applications", tuple(self.applications))
        if not self.applications:
            raise ValueError("a scenario needs at least one application")
        if self.high_priority_index is not None and not (
            0 <= self.high_priority_index < len(self.applications)
        ):
            raise ValueError("high_priority_index out of range")
        if self.min_iterations is not None and self.min_iterations < 1:
            raise ValueError("min_iterations must be at least 1")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be at least 1")
        if self.start_stagger_us < 0:
            raise ValueError("start_stagger_us must be non-negative")
        object.__setattr__(
            self, "config_overrides", _canonicalize(dict(self.config_overrides))
        )
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", _canonicalize(dict(self.arrivals)))
        if self.slo is not None:
            object.__setattr__(self, "slo", _canonicalize(dict(self.slo)))
        if self.slo is not None and self.arrivals is None:
            raise ValueError("slo= budgets require an arrivals= section")
        if self.cluster is not None:
            object.__setattr__(self, "cluster", _canonicalize(dict(self.cluster)))
            if self.arrivals is None:
                raise ValueError("cluster= fleets require an arrivals= section")
        if self.metrics is not None:
            if self.metrics is True:  # accept the CLI's bare-flag shorthand
                object.__setattr__(self, "metrics", {})
            else:
                object.__setattr__(self, "metrics", _canonicalize(dict(self.metrics)))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_workload(cls, workload, scheme: SchemeSpec, **kwargs) -> "ScenarioSpec":
        """Build a scenario from a workload object.

        ``workload`` is anything exposing ``applications``,
        ``high_priority_index`` and ``workload_id`` (e.g.
        :class:`repro.workloads.multiprogram.WorkloadSpec`).
        """
        return cls(
            scheme=scheme,
            applications=tuple(workload.applications),
            high_priority_index=workload.high_priority_index,
            workload_id=workload.workload_id,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def num_processes(self) -> int:
        """Number of processes in the scenario."""
        return len(self.applications)

    def process_names(self) -> List[str]:
        """Unique process names (``app#slot``) for the scenario."""
        return [f"{app}#{slot}" for slot, app in enumerate(self.applications)]

    def workload_scale(self):
        """The resolved :class:`~repro.workloads.scale.WorkloadScale` preset."""
        from repro.workloads.scale import WorkloadScale  # local: avoids cycle

        return WorkloadScale.by_name(self.scale)

    def system_config(self) -> SystemConfig:
        """The (unscaled) hardware configuration with overrides applied."""
        return apply_config_overrides(SystemConfig(), self.config_overrides)

    def resolved_min_iterations(self) -> int:
        """Iteration bound: explicit value or the scale preset's default."""
        if self.min_iterations is not None:
            return self.min_iterations
        return self.workload_scale().min_iterations

    def resolved_max_events(self) -> int:
        """Event bound: explicit value or :data:`DEFAULT_MAX_EVENTS`."""
        return self.max_events if self.max_events is not None else DEFAULT_MAX_EVENTS

    def describe(self) -> str:
        """Short human-readable description used in reports and logs."""
        parts = []
        for slot, app in enumerate(self.applications):
            marker = "*" if slot == self.high_priority_index else ""
            parts.append(f"{app}{marker}")
        return f"W{self.workload_id}[{', '.join(parts)}] @ {self.scheme.label}/{self.scale}"

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serialisable)."""
        payload = {
            "scheme": self.scheme.to_dict(),
            "applications": list(self.applications),
            "high_priority_index": self.high_priority_index,
            "workload_id": self.workload_id,
            "scale": self.scale,
            "config_overrides": dict(self.config_overrides),
            "min_iterations": self.min_iterations,
            "max_events": self.max_events,
            "start_stagger_us": self.start_stagger_us,
            "high_priority": self.high_priority,
            "normal_priority": self.normal_priority,
            "validate": self.validate,
            "trace": self.trace,
            "arrivals": None if self.arrivals is None else dict(self.arrivals),
            "slo": None if self.slo is None else dict(self.slo),
            "cluster": None if self.cluster is None else dict(self.cluster),
        }
        # Omitted when disabled so pre-observability scenario dicts (golden
        # fixtures, archived payloads) stay byte-identical.
        if self.metrics is not None:
            payload["metrics"] = dict(self.metrics)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a scenario from :meth:`to_dict` output."""
        _reject_unknown_keys(cls, payload)
        data = dict(payload)
        scheme = data.pop("scheme")
        if isinstance(scheme, Mapping):
            scheme = SchemeSpec.from_dict(scheme)
        return cls(scheme=scheme, **data)

    def to_json(self) -> str:
        """JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a scenario from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


__all__ = [
    "SchemeSpec",
    "ScenarioSpec",
    "apply_config_overrides",
    "config_to_overrides",
    "HIGH_PRIORITY",
    "NORMAL_PRIORITY",
    "DEFAULT_START_STAGGER_US",
    "DEFAULT_MAX_EVENTS",
]
