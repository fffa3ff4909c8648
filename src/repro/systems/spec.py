"""System descriptors and the string-keyed system registry.

An HTM system in this codebase is not a monolith: it is a *composition*
of four orthogonal mechanism layers (Section VI-B of the paper reads as a
cross-product of exactly these):

* **conflict** — what the holder does with a conflicting requester:
  ``requester-wins`` (holder aborts), ``requester-speculates`` (holder
  forwards a speculative value), or ``requester-stalls`` (holder NACKs).
* **ordering** — how chains of speculative forwardings are kept acyclic:
  ``none`` (no tracking — the naive scheme), ``pic`` (the Position-in-
  Chain register of CHATS), ``ideal-timestamp`` (never-rolling-over
  begin timestamps), or ``levc-flags`` (LEVC's endpoint restrictions).
* **priority** — an optional elevated-priority token: ``none`` or
  ``power`` (the PowerTM single-token scheme).
* **validation** — the consumer-side validation scheme: ``none`` (the
  system never consumes), ``interval`` (plain periodic validation),
  ``pic-check`` (periodic validation plus the PiC cycle check), or
  ``naive-budget`` (periodic validation with a bounded unsuccessful-
  validation escape counter).

A :class:`SystemSpec` freezes one choice per layer plus the system's
Table II parameters.  Specs are registered under their string name in a
process-global registry; everything that enumerates or dispatches on
systems — policy construction, the CLI, the experiment registry, cache
keys — goes through :func:`get_spec` / :func:`registered_systems` /
:func:`paper_systems`.  Registering a new system is one :func:`register`
call; no core module needs editing.

A spec serializes as its ``.name``, and ``.forwards`` / ``.powered`` are
derived from the layers instead of hardwired membership lists.
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


#: The closed vocabulary of each mechanism layer.
CONFLICT_LAYERS = ("requester-wins", "requester-speculates", "requester-stalls")
ORDERING_LAYERS = ("none", "pic", "ideal-timestamp", "levc-flags")
PRIORITY_LAYERS = ("none", "power")
VALIDATION_LAYERS = ("none", "interval", "pic-check", "naive-budget")
#: Fallback-path layer: ``lock`` serialises give-up transactions behind
#: the global fallback lock (the paper's model, and PowerTM's token when
#: the priority layer is ``power``); ``hybrid`` runs an instrumented
#: software slow path concurrently with hardware transactions, guarded by
#: per-block ownership records (see :mod:`repro.htm.fallback`).
FALLBACK_LAYERS = ("lock", "hybrid")


@dataclass(frozen=True)
class SystemSpec:
    """One registered HTM system: a layer composition plus its Table II
    parameters.

    Frozen and hashable so specs can key experiment dictionaries and ride
    inside :class:`~repro.sim.config.HTMConfig` (itself frozen and hashed
    by the experiment runner's content-addressed cache).
    """

    #: Registry key, e.g. ``"chats"``; also the serialized identity in
    #: cache keys and result JSON.
    name: str
    #: Human-readable label used by figures and tables, e.g. ``"CHATS"``.
    label: str
    conflict: str = "requester-wins"
    ordering: str = "none"
    priority: str = "none"
    validation: str = "none"
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
        if self.conflict not in CONFLICT_LAYERS:
            raise ValueError(
                f"unknown conflict layer {self.conflict!r}; "
                f"choose from {list(CONFLICT_LAYERS)}"
            )
        if self.ordering not in ORDERING_LAYERS:
            raise ValueError(
                f"unknown ordering layer {self.ordering!r}; "
                f"choose from {list(ORDERING_LAYERS)}"
            )
        if self.priority not in PRIORITY_LAYERS:
            raise ValueError(
                f"unknown priority layer {self.priority!r}; "
                f"choose from {list(PRIORITY_LAYERS)}"
            )
        if self.validation not in VALIDATION_LAYERS:
            raise ValueError(
                f"unknown validation layer {self.validation!r}; "
                f"choose from {list(VALIDATION_LAYERS)}"
            )
        if self.fallback not in FALLBACK_LAYERS:
            raise ValueError(
                f"unknown fallback layer {self.fallback!r}; "
                f"choose from {list(FALLBACK_LAYERS)}"
            )
        if self.fallback == "hybrid" and self.priority == "power":
            raise ValueError(
                f"system {self.name!r}: the power token is itself a "
                f"fallback path; combine it with fallback='lock'"
            )
        if self.read_set_limit is not None and self.signature_bits is not None:
            raise ValueError(
                f"system {self.name!r}: read_set_limit and signature_bits "
                f"are mutually exclusive read-set models"
            )
        for knob in ("signature_bits", "read_set_limit", "write_set_limit"):
            bound = getattr(self, knob)
            if bound is not None and bound < 1:
                raise ValueError(f"system {self.name!r}: {knob} must be positive")
        if self.forwards:
            # A forwarding system must carry the full forwarding
            # parameter set so ``table2_config`` always yields a valid
            # HTMConfig (checked again at registration time).
            if self.forward_class is None:
                raise ValueError(f"system {self.name!r} forwards but has no forward class")
            if self.vsb_size is None or self.vsb_size < 1:
                raise ValueError(f"system {self.name!r} forwards but has no VSB size")
            if self.validation_interval is None or self.validation_interval < 0:
                raise ValueError(
                    f"system {self.name!r} forwards but has no validation interval"
                )

    # -- derived from the layers ----------------------------------------
    @property
    def forwards(self) -> bool:
        """Whether this system ever sends speculative responses (derived
        from the conflict layer, not a hardwired membership list)."""
        return self.conflict == "requester-speculates"

    @property
    def powered(self) -> bool:
        """Whether this system uses the PowerTM elevated-priority token."""
        return self.priority == "power"

    @property
    def uses_timestamps(self) -> bool:
        """Whether transactions need an ideal begin timestamp drawn at
        start (LEVC's and the wound-wait/chats-ts orderings)."""
        return self.ordering in ("ideal-timestamp", "levc-flags")

    # -- presentation ---------------------------------------------------
    def describe_layers(self) -> str:
        """One-line layer composition, for ``repro list`` and docs."""
        text = (
            f"conflict={self.conflict} ordering={self.ordering} "
            f"priority={self.priority} validation={self.validation}"
        )
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
