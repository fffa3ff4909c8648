"""The HTM-system registry.

Systems are :class:`SystemSpec` descriptors — a conflict ``policy`` (one
of :data:`POLICIES`), a priority layer and a fallback layer, plus Table
II parameters — registered under string names.  The paper's six systems
and the non-paper ones register on import; user code adds its own with
:func:`register` and runs it through any existing entry point
(``table2_config``, ``run_workload``, ``repro run --system``)::

    from repro.systems import ForwardClass, SystemSpec, register

    register(SystemSpec(
        name="naive-w",
        label="Naive W-only",
        policy="speculates-naive",
        retries=2,
        forward_class=ForwardClass.W,
        vsb_size=4,
        validation_interval=50,
    ))

Only descriptor/registry modules load eagerly (they are imported by
:mod:`repro.sim.config` very early); the policy classes and
:func:`repro.systems.conflict.make_policy` are imported from their own
module, keeping this package import-light.
"""

from __future__ import annotations

from .spec import (
    FALLBACK_LAYERS,
    ForwardClass,
    POLICIES,
    PRIORITY_LAYERS,
    SystemSpec,
    UnknownSystemError,
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
    "FALLBACK_LAYERS",
    "ForwardClass",
    "POLICIES",
    "PRIORITY_LAYERS",
    "SystemSpec",
    "UnknownSystemError",
    "get_spec",
    "paper_systems",
    "register",
    "register_alias",
    "registered_systems",
    "system_aliases",
]
