"""Component registries for the pluggable parts of the simulated system.

Seven registries name the pluggable components:

* :data:`POLICIES` — scheduling policies (``fcfs``, ``npq``, ``ppq``,
  ``ppq_shared``, ``dss``, ...),
* :data:`MECHANISMS` — preemption mechanisms (``context_switch``,
  ``draining``),
* :data:`CONTROLLERS` — preemption controllers, consulted per preemption
  request to pick the mechanism (``static``, ``hybrid``, ``adaptive``),
* :data:`TRANSFER_POLICIES` — data-transfer engine scheduling policies
  (``fcfs``, ``npq``),
* :data:`ARRIVALS` — open-loop request arrival processes for the serving
  layer (``poisson``, ``mmpp``, ``lognormal``, ``pareto``, ``replay``),
* :data:`ROUTERS` — cluster request routers placing admitted requests on
  fleet member GPUs (``round_robin``, ``least_loaded``, ``tenant_affinity``,
  ``priority_spill``),
* :data:`TRACE_SOURCES` — workload-trace synthesizers for the trace-driven
  load generator (``azure_faas``, ``pareto_burst``, ``lognormal_diurnal``).

The built-in components register themselves with the
:func:`register_policy` / :func:`register_mechanism` /
:func:`register_controller` / :func:`register_transfer_policy` decorators in
their defining modules; the registries lazily import those modules on first
lookup, so importing :mod:`repro.registry` alone stays cheap and cycle-free.

Third-party code can plug in new components without touching the core:

>>> from repro.registry import register_policy
>>> from repro.core.policies.fcfs import FCFSPolicy
>>> @register_policy("yield_often", description="demo policy")
... class YieldOftenPolicy(FCFSPolicy):
...     name = "yield_often"

After registration, ``GPUSystem(policy="yield_often")``, scheme specs and
the experiment CLI all resolve the new name like any built-in one.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple


def normalize_name(name: str) -> str:
    """Canonicalise a component name (case, dashes and spaces)."""
    return name.strip().lower().replace("-", "_").replace(" ", "_")


class UnknownComponentError(ValueError):
    """Raised when a registry lookup fails; message suggests close matches."""

    def __init__(self, kind: str, name: str, candidates: List[str]):
        self.kind = kind
        self.name = name
        self.suggestions = difflib.get_close_matches(
            normalize_name(name), candidates, n=3, cutoff=0.5
        )
        message = f"unknown {kind}: {name!r}"
        if self.suggestions:
            message += f" (did you mean: {', '.join(self.suggestions)}?)"
        message += f"; registered: {', '.join(sorted(candidates))}"
        super().__init__(message)


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component factory."""

    #: Canonical name the component was registered under.
    name: str
    #: Class or callable invoked by :meth:`ComponentRegistry.create`.
    factory: Callable[..., Any]
    #: Alternative names accepted by lookups.
    aliases: Tuple[str, ...] = ()
    #: Keyword defaults applied unless the caller passes the key explicitly.
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: Keyword arguments forced on every instantiation (caller cannot unset).
    overrides: Mapping[str, Any] = field(default_factory=dict)
    #: One-line human-readable description (shown by ``--list``).
    description: str = ""

    def create(self, **kwargs) -> Any:
        """Instantiate the component with defaults/overrides applied."""
        merged = dict(self.defaults)
        merged.update(kwargs)
        merged.update(self.overrides)
        return self.factory(**merged)


class ComponentRegistry:
    """A name → factory registry with aliases and lazy built-in loading."""

    def __init__(self, kind: str, loader: Optional[Callable[[], None]] = None):
        #: Human-readable component kind used in error messages.
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._index: Dict[str, str] = {}  # normalized alias -> canonical name
        self._loader = loader
        self._loaded = loader is None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *aliases: str,
        defaults: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        description: Optional[str] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``factory`` under ``name`` (plus aliases)."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(
                name,
                factory,
                *aliases,
                defaults=defaults,
                overrides=overrides,
                description=description,
            )
            return factory

        return decorator

    def add(
        self,
        name: str,
        factory: Callable[..., Any],
        *aliases: str,
        defaults: Optional[Mapping[str, Any]] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        description: Optional[str] = None,
    ) -> RegistryEntry:
        """Register ``factory`` directly (non-decorator form)."""
        canonical = normalize_name(name)
        all_names = [canonical, *(normalize_name(alias) for alias in aliases)]
        for candidate in all_names:
            if candidate in self._index:
                raise ValueError(
                    f"{self.kind} {candidate!r} is already registered "
                    f"(by {self._index[candidate]!r})"
                )
        if description is None:
            doc = getattr(factory, "__doc__", None) or ""
            description = doc.strip().splitlines()[0] if doc.strip() else ""
        entry = RegistryEntry(
            name=canonical,
            factory=factory,
            aliases=tuple(all_names[1:]),
            defaults=dict(defaults or {}),
            overrides=dict(overrides or {}),
            description=description,
        )
        self._entries[canonical] = entry
        for candidate in all_names:
            self._index[candidate] = canonical
        return entry

    def unregister(self, name: str) -> None:
        """Remove a registration (used by tests and hot-reload tooling)."""
        entry = self.entry(name)
        del self._entries[entry.name]
        for alias in (entry.name, *entry.aliases):
            self._index.pop(alias, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._loaded = True
            self._loader()  # type: ignore[misc]

    def entry(self, name: str) -> RegistryEntry:
        """Look up the entry for ``name`` (canonical name or alias)."""
        self._ensure_loaded()
        canonical = self._index.get(normalize_name(name))
        if canonical is None:
            raise UnknownComponentError(self.kind, name, list(self._index))
        return self._entries[canonical]

    def create(self, name: str, **kwargs) -> Any:
        """Instantiate the component registered under ``name``."""
        return self.entry(name).create(**kwargs)

    def canonical_name(self, name: str) -> str:
        """Resolve ``name`` (possibly an alias) to its canonical name."""
        return self.entry(name).name

    def names(self) -> List[str]:
        """Sorted canonical names of every registered component."""
        self._ensure_loaded()
        return sorted(self._entries)

    def describe(self) -> Dict[str, str]:
        """Canonical name → one-line description, for ``--list`` output."""
        self._ensure_loaded()
        return {name: self._entries[name].description for name in self.names()}

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        self._ensure_loaded()
        return normalize_name(name) in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComponentRegistry(kind={self.kind!r}, names={self.names()})"


# ----------------------------------------------------------------------
# The registries (built-ins are imported lazily on first lookup)
# ----------------------------------------------------------------------
def _load_builtin_policies() -> None:
    import repro.core.policies  # noqa: F401  (registers on import)


def _load_builtin_mechanisms() -> None:
    import repro.core.preemption  # noqa: F401


def _load_builtin_controllers() -> None:
    import repro.core.preemption.controller  # noqa: F401


def _load_builtin_transfer_policies() -> None:
    import repro.memory.transfer_engine  # noqa: F401


def _load_builtin_arrivals() -> None:
    import repro.serving.arrivals  # noqa: F401


def _load_builtin_routers() -> None:
    import repro.cluster.routing  # noqa: F401


def _load_builtin_trace_sources() -> None:
    import repro.loadgen.synth  # noqa: F401


POLICIES = ComponentRegistry("scheduling policy", _load_builtin_policies)
MECHANISMS = ComponentRegistry("preemption mechanism", _load_builtin_mechanisms)
CONTROLLERS = ComponentRegistry("preemption controller", _load_builtin_controllers)
TRANSFER_POLICIES = ComponentRegistry(
    "transfer scheduling policy", _load_builtin_transfer_policies
)
ARRIVALS = ComponentRegistry("arrival process", _load_builtin_arrivals)
ROUTERS = ComponentRegistry("cluster router", _load_builtin_routers)
TRACE_SOURCES = ComponentRegistry("trace source", _load_builtin_trace_sources)


def register_policy(name: str, *aliases: str, **kwargs):
    """Register a scheduling policy class/factory (decorator)."""
    return POLICIES.register(name, *aliases, **kwargs)


def register_mechanism(name: str, *aliases: str, **kwargs):
    """Register a preemption mechanism class/factory (decorator)."""
    return MECHANISMS.register(name, *aliases, **kwargs)


def register_controller(name: str, *aliases: str, **kwargs):
    """Register a preemption controller class/factory (decorator)."""
    return CONTROLLERS.register(name, *aliases, **kwargs)


def register_transfer_policy(name: str, *aliases: str, **kwargs):
    """Register a transfer-engine scheduling policy (decorator)."""
    return TRANSFER_POLICIES.register(name, *aliases, **kwargs)


def register_arrival(name: str, *aliases: str, **kwargs):
    """Register an open-loop arrival process (decorator)."""
    return ARRIVALS.register(name, *aliases, **kwargs)


def register_router(name: str, *aliases: str, **kwargs):
    """Register a cluster request router (decorator)."""
    return ROUTERS.register(name, *aliases, **kwargs)


def register_trace_source(name: str, *aliases: str, **kwargs):
    """Register a workload-trace synthesizer (decorator)."""
    return TRACE_SOURCES.register(name, *aliases, **kwargs)


__all__ = [
    "ComponentRegistry",
    "RegistryEntry",
    "UnknownComponentError",
    "normalize_name",
    "POLICIES",
    "MECHANISMS",
    "CONTROLLERS",
    "TRANSFER_POLICIES",
    "ARRIVALS",
    "ROUTERS",
    "TRACE_SOURCES",
    "register_policy",
    "register_mechanism",
    "register_controller",
    "register_transfer_policy",
    "register_arrival",
    "register_router",
    "register_trace_source",
]
