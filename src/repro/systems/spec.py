"""System descriptors and the string-keyed system registry.

The paper's systems differ in one decision: what a transaction holding a
block does with a conflicting request.  A :class:`SystemSpec` names that
decision as its ``policy``, one of the closed set :data:`POLICIES`: the
holder aborts (``requester-wins``), stalls the requester
(``requester-stalls``), or forwards its speculative value under one of
four ordering rules (``speculates-naive``, ``-pic``, ``-timestamp`` and
``-levc``).  Each name is one class in :mod:`repro.systems.conflict`.

Two more fields complete a system: ``priority`` (``none`` or PowerTM's
``power`` token, which wraps any policy) and ``fallback`` (``lock`` or
the ``hybrid`` software slow path), plus its Table II parameters.  Specs
are registered under their string name in a process-global registry;
everything that enumerates or dispatches on systems — policy
construction, the CLI, the experiment registry, cache keys — goes
through :func:`get_spec` / :func:`registered_systems` /
:func:`paper_systems`.  Registering a new system is one :func:`register`
call; no core module needs editing.

A spec serializes as its ``.name``, and ``.forwards`` / ``.powered`` /
``.uses_timestamps`` are derived from ``policy`` and ``priority``
instead of hardwired membership lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple


class ForwardClass(Enum):
    """Which blocks are eligible for speculative forwarding (Section VI-D).

    * ``RW`` — *Forward all*: read-set and write-set blocks.
    * ``W`` — *Forward written*: write-set blocks only.
    * ``R_RESTRICT_W`` — read and write-set blocks, but a heuristic refuses
      to forward blocks with an in-flight local write (the paper's best
      configuration, used by CHATS and PCHATS in the main evaluation).
    """

    RW = "R/W"
    W = "W"
    R_RESTRICT_W = "Rrestrict/W"


# Module constants for event-path code, which names no member through
# its class (docs/PERFORMANCE.md, "Enum members on the event path").
FORWARD_RW = ForwardClass.RW
FORWARD_W = ForwardClass.W
FORWARD_R_RESTRICT_W = ForwardClass.R_RESTRICT_W


#: What a holder does with a conflicting request: one name per class in
#: :mod:`repro.systems.conflict`.
POLICIES = (
    "requester-wins",
    "requester-stalls",
    "speculates-naive",
    "speculates-pic",
    "speculates-timestamp",
    "speculates-levc",
)
#: The priority-token layer: ``power`` wraps the policy in PowerTM's rules.
PRIORITY_LAYERS = ("none", "power")
#: Fallback-path layer: ``lock`` serialises give-up transactions behind
#: the global fallback lock (the paper's model, and PowerTM's token when
#: the priority layer is ``power``); ``hybrid`` runs an instrumented
#: software slow path concurrently with hardware transactions, guarded by
#: per-block ownership records (see :mod:`repro.htm.fallback`).
FALLBACK_LAYERS = ("lock", "hybrid")


def check_table2(params, system: "SystemSpec") -> None:
    """Check the Table II values ``params`` carries for ``system``.

    ``params`` is the spec itself or an
    :class:`~repro.sim.config.HTMConfig` (both name these fields alike),
    so a spec registers only with values its configurations accept."""
    where = f"system {system.name!r}"
    if params.retries < 0:
        raise ValueError(f"{where}: retries must be >= 0")
    if params.read_set_limit is not None and params.signature_bits is not None:
        raise ValueError(
            f"{where}: read_set_limit and signature_bits are mutually "
            f"exclusive read-set models"
        )
    for knob in ("signature_bits", "read_set_limit", "write_set_limit"):
        bound = getattr(params, knob)
        if bound is not None and bound < 1:
            raise ValueError(f"{where}: {knob} must be positive")
    if system.forwards:
        if params.forward_class is None:
            raise ValueError(f"{where} forwards but has no forward class")
        if params.vsb_size is None or params.vsb_size < 1:
            raise ValueError(f"{where} forwards but has no positive VSB size")
        if params.validation_interval is None or params.validation_interval < 0:
            raise ValueError(
                f"{where} forwards but has no validation interval >= 0"
            )


@dataclass(frozen=True)
class SystemSpec:
    """One registered HTM system: its conflict policy, priority and
    fallback layers, plus its Table II parameters.

    Frozen and hashable so specs can key experiment dictionaries and ride
    inside :class:`~repro.sim.config.HTMConfig` (itself frozen and hashed
    by the experiment runner's content-addressed cache).
    """

    #: Registry key, e.g. ``"chats"``; also the serialized identity in
    #: cache keys and result JSON.
    name: str
    #: Human-readable label used by figures and tables, e.g. ``"CHATS"``.
    label: str
    #: What a holder does with a conflicting request (one of
    #: :data:`POLICIES`).
    policy: str = "requester-wins"
    priority: str = "none"
    #: What a transaction that exhausts its retries does: serialise
    #: behind the global lock (``"lock"``) or enter the instrumented
    #: concurrent software slow path (``"hybrid"``).
    fallback: str = "lock"
    # Table II parameters (the system's best cost-effective values).
    retries: int = 6
    forward_class: Optional[ForwardClass] = None
    vsb_size: Optional[int] = None
    validation_interval: Optional[int] = None
    # Capacity knobs (the capacity-limited family; ``None`` keeps the
    # paper's unbounded read/write-set model).  ``signature_bits`` selects
    # a Bloom read signature, ``read_set_limit`` a bounded-entry perfect
    # signature — mutually exclusive; ``write_set_limit`` bounds the
    # speculative write set.
    signature_bits: Optional[int] = None
    read_set_limit: Optional[int] = None
    write_set_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("system name must be non-empty")
        for field, value, choices in (
            ("policy", self.policy, POLICIES),
            ("priority layer", self.priority, PRIORITY_LAYERS),
            ("fallback layer", self.fallback, FALLBACK_LAYERS),
        ):
            if value not in choices:
                raise ValueError(
                    f"unknown {field} {value!r}; choose from {list(choices)}"
                )
        if self.fallback == "hybrid" and self.priority == "power":
            raise ValueError(
                f"system {self.name!r}: the power token is itself a "
                f"fallback path; combine it with fallback='lock'"
            )
        # HTMConfig's own checks, so ``table2_config`` of a registered
        # spec always yields a valid configuration.
        check_table2(self, self)

    # -- derived from the policy ----------------------------------------
    @property
    def forwards(self) -> bool:
        """Whether this system ever sends speculative responses."""
        return self.policy.startswith("speculates-")

    @property
    def powered(self) -> bool:
        """Whether this system uses the PowerTM elevated-priority token."""
        return self.priority == "power"

    @property
    def uses_timestamps(self) -> bool:
        """Whether transactions draw an ideal begin timestamp at start
        (wound-wait stalls, timestamp-ordered forwarding and LEVC)."""
        return self.policy in (
            "requester-stalls",
            "speculates-timestamp",
            "speculates-levc",
        )

    # -- presentation ---------------------------------------------------
    def describe_layers(self) -> str:
        """One-line policy and layer summary, for ``repro list`` and docs."""
        text = f"policy={self.policy} priority={self.priority}"
        if self.fallback != "lock":
            text += f" fallback={self.fallback}"
        return text

    def describe_table2(self) -> str:
        """One-line Table II parameter summary."""
        parts = [f"retries={self.retries}"]
        if self.forward_class is not None:
            parts.append(f"class={self.forward_class.value}")
        if self.vsb_size is not None:
            parts.append(f"vsb={self.vsb_size}")
        if self.validation_interval is not None:
            parts.append(f"interval={self.validation_interval}")
        if self.signature_bits is not None:
            parts.append(f"sig-bits={self.signature_bits}")
        if self.read_set_limit is not None:
            parts.append(f"rs-limit={self.read_set_limit}")
        if self.write_set_limit is not None:
            parts.append(f"ws-limit={self.write_set_limit}")
        return " ".join(parts)

    def __repr__(self) -> str:  # compact — specs appear in test ids/errors
        return f"SystemSpec({self.name!r})"

    def __str__(self) -> str:
        return self.name


# ----------------------------------------------------------------------
# The registry.
# ----------------------------------------------------------------------
class UnknownSystemError(KeyError):
    """Lookup of a system name that is not registered."""

    def __init__(self, name: str, registered: Tuple[str, ...]):
        super().__init__(name)
        self.name = name
        self.registered = registered

    def __str__(self) -> str:
        return (
            f"unknown system {self.name!r}; registered systems: "
            f"{list(self.registered)}"
        )


_REGISTRY: Dict[str, SystemSpec] = {}
_ORDER: List[str] = []  # registration order
_PAPER: List[str] = []  # the paper's six, in presentation order
_ALIASES: Dict[str, str] = {}  # alternate lookup name -> registered name


def register(spec: SystemSpec, *, paper: bool = False) -> SystemSpec:
    """Register ``spec`` under ``spec.name`` and return it.

    ``paper=True`` additionally lists the system among the paper's six
    (the set enumerated by ``--all-systems`` and the figure sweeps).
    Registering the same name twice is an error unless the spec is
    identical (idempotent re-imports are fine).
    """
    existing = _REGISTRY.get(spec.name)
    if existing is not None:
        if existing == spec:
            return existing
        raise ValueError(
            f"system {spec.name!r} is already registered with a different "
            f"spec; pick a new name"
        )
    _REGISTRY[spec.name] = spec
    _ORDER.append(spec.name)
    if paper:
        _PAPER.append(spec.name)
    return spec


def register_alias(alias: str, target: str) -> None:
    """Make ``alias`` resolve to the registered system ``target``.

    Aliases are lookup conveniences only: they resolve through
    :func:`get_spec` but never appear in :func:`registered_systems`, the
    paper-six sweeps, or cache keys (the resolved spec's canonical name
    is what serializes).  Re-registering an alias to the same target is
    idempotent; retargeting or shadowing a registered name is an error.
    """
    if alias in _REGISTRY:
        raise ValueError(f"{alias!r} is already a registered system name")
    existing = _ALIASES.get(alias)
    if existing is not None and existing != target:
        raise ValueError(
            f"alias {alias!r} already points at {existing!r}; "
            f"cannot retarget to {target!r}"
        )
    if target not in _REGISTRY:
        raise UnknownSystemError(target, tuple(_ORDER))
    _ALIASES[alias] = target


def system_aliases() -> Dict[str, str]:
    """Every registered alias, mapped to its canonical system name."""
    return dict(_ALIASES)


def get_spec(name: str) -> SystemSpec:
    """Look up a registered system by name (or alias).

    Raises :class:`UnknownSystemError` (a ``KeyError`` whose message lists
    every registered key) for unknown names.
    """
    if isinstance(name, SystemSpec):
        return name
    spec = _REGISTRY.get(name)
    if spec is None and name in _ALIASES:
        spec = _REGISTRY.get(_ALIASES[name])
    if spec is None:
        raise UnknownSystemError(name, tuple(_ORDER))
    return spec


def registered_systems() -> Tuple[SystemSpec, ...]:
    """Every registered system, in registration order."""
    return tuple(_REGISTRY[name] for name in _ORDER)


def paper_systems() -> Tuple[SystemSpec, ...]:
    """The paper's six systems, in the paper's presentation order."""
    return tuple(_REGISTRY[name] for name in _PAPER)
