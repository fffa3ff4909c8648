"""Composable HTM-system registry.

Systems are :class:`SystemSpec` descriptors — compositions of a conflict
layer, an ordering layer, a priority layer, and a validation layer, plus
Table II parameters — registered under string names.  The paper's six
systems and the two non-paper demonstrators register on import; user code
adds its own with :func:`register` and runs it through any existing entry
point (``table2_config``, ``run_workload``, ``repro run --system``)::

    from repro.systems import ForwardClass, SystemSpec, register

    register(SystemSpec(
        name="naive-w",
        label="Naive W-only",
        conflict="requester-speculates",
        validation="naive-budget",
        retries=2,
        forward_class=ForwardClass.W,
        vsb_size=4,
        validation_interval=50,
    ))

Only descriptor/registry modules load eagerly (they are imported by
:mod:`repro.sim.config` very early); the policy-construction machinery
(:func:`repro.systems.compose.make_policy` and the component classes) is
imported from its own modules, keeping this package import-light.
"""

from __future__ import annotations

from .spec import (
    CONFLICT_LAYERS,
    FALLBACK_LAYERS,
    ForwardClass,
    ORDERING_LAYERS,
    PRIORITY_LAYERS,
    SystemSpec,
    UnknownSystemError,
    VALIDATION_LAYERS,
    get_spec,
    paper_systems,
    register,
    register_alias,
    registered_systems,
    system_aliases,
)

# Importing these modules registers their systems.
from . import paper as _paper  # noqa: F401
from . import extra as _extra  # noqa: F401
from . import capacity as _capacity  # noqa: F401
from . import hybrid as _hybrid  # noqa: F401

__all__ = [
    "CONFLICT_LAYERS",
    "FALLBACK_LAYERS",
    "ForwardClass",
    "ORDERING_LAYERS",
    "PRIORITY_LAYERS",
    "SystemSpec",
    "UnknownSystemError",
    "VALIDATION_LAYERS",
    "get_spec",
    "paper_systems",
    "register",
    "register_alias",
    "registered_systems",
    "system_aliases",
]
