"""Source rules for the simulator's event path.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so every
``Cls.MEMBER`` load inside a function takes CPython's slow attribute
path: about 100 ns more than a module global on a 2-vCPU Xeon VM, and
still about 20 ns more on 3.12 and 3.13, which dropped the hook.
Event-path code therefore names enum members through the module
constants bound beside each class (``DATA = MessageKind.DATA``).

A ``lambda`` inside a function builds a closure each time the line runs,
and calling it adds a frame that only forwards to the real target.  On
the event path that happened once per memory op, so completion
callbacks are bound methods and the L1 passes the attempt's epoch
itself (docs/PERFORMANCE.md, "Callbacks and records on the event
path").  No event-path function may contain a ``lambda``.

A call that passes keyword arguments makes the callee match each one
to a parameter by name, and Python 3.11 never specialises such a call
(its call specialisations take positional arguments only).  Every
coherence hop used to pay for several: the message itself (``make_message`` with up
to 16 keywords), its MSHR record, the crossbar's ``extra_delay``, line
installs and aborts.  So no function of ``repro.net`` or ``repro.mem``
passes keyword arguments, nor does ``repro.sim.core``, which builds each
transaction attempt's ``TxState``, except to the probe event classes of
``repro.obs.events`` (by name or through the module), which are built
only when the probe has subscribers, and to named C builtins such as
``min(..., key=)``, which bind keywords in C.

The rules work from each module's AST, so they read the same on every
supported Python.
"""

from __future__ import annotations

import ast
import builtins
import enum
import importlib
import pkgutil
import types
from pathlib import Path
from typing import Dict, List

#: The packages that run per simulated event.
EVENT_PATH_PACKAGES = (
    "repro.sim",
    "repro.net",
    "repro.mem",
    "repro.core",
    "repro.htm",
    "repro.systems",
)


#: The packages of the message hop and the module of the simulated cores,
#: whose functions pass no keywords.
NO_KEYWORD_PACKAGES = ("repro.net", "repro.mem", "repro.sim.core")


def event_path_modules(packages=EVENT_PATH_PACKAGES) -> List[object]:
    """Each named package with its modules, or each named module."""
    modules = []
    for name in packages:
        package = importlib.import_module(name)
        modules.append(package)
        for info in pkgutil.iter_modules(
            getattr(package, "__path__", ()), name + "."
        ):
            modules.append(importlib.import_module(info.name))
    return modules


def _enum_members(namespace: dict) -> Dict[str, frozenset]:
    """Name -> member names of every ``Enum`` subclass ``namespace``
    binds."""
    return {
        name: frozenset(value.__members__)
        for name, value in namespace.items()
        if isinstance(value, type) and issubclass(value, enum.Enum)
    }


def enum_member_loads(source: str, namespace: dict) -> List[str]:
    """``module:line Cls.MEMBER`` for each member load inside a function
    or lambda body.  Class bodies, defaults and module-level code run
    once, so they are not counted."""
    enums = _enum_members(namespace)
    if not enums:
        return []
    bodies = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.extend(node.body)
        elif isinstance(node, ast.Lambda):
            bodies.append(node.body)
    sites = {
        (node.lineno, f"{node.value.id}.{node.attr}")
        for body in bodies
        for node in ast.walk(body)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.attr in enums.get(node.value.id, ())
    }
    name = namespace["__name__"]
    return [f"{name}:{line} {load}" for line, load in sorted(sites)]


def test_event_path_names_enum_members_through_module_constants():
    sites = [
        site
        for module in event_path_modules()
        for site in enum_member_loads(
            Path(module.__file__).read_text(), vars(module)
        )
    ]
    assert not sites, (
        f"{len(sites)} enum member loads inside functions; bind each "
        f"member to a module constant beside its class and use that:\n"
        + "\n".join(sites)
    )


def test_rule_flags_loads_in_functions_and_lambdas_only():
    source = (
        "import enum\n"
        "class Kind(enum.Enum):\n"
        "    A = 1\n"
        "    B = 2\n"
        "DEFAULT = Kind.A\n"
        "def f(kind, default=Kind.B):\n"
        "    return kind is Kind.A\n"
        "g = lambda kind: kind is Kind.B\n"
        "class Holder:\n"
        "    kind = Kind.A\n"
        "    def h(self):\n"
        "        return Kind.B, Kind.value, Kind\n"
    )
    namespace = {"__name__": "m"}
    exec(compile(source, "m", "exec"), namespace)
    assert enum_member_loads(source, namespace) == [
        "m:7 Kind.A",
        "m:8 Kind.B",
        "m:12 Kind.B",
    ]


def lambdas_in_functions(source: str, name: str) -> List[str]:
    """``module:line`` of each ``lambda`` inside a function body.
    Module-level code and a function's defaults run once, so their
    lambdas are not counted."""
    sites = {
        (node.lineno, node.col_offset)
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in func.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Lambda)
    }
    return [f"{name}:{line}" for line, _ in sorted(sites)]


def test_event_path_builds_no_lambdas():
    sites = [
        site
        for module in event_path_modules()
        for site in lambdas_in_functions(
            Path(module.__file__).read_text(), module.__name__
        )
    ]
    assert not sites, (
        f"{len(sites)} lambdas inside event-path functions; pass a bound "
        f"method (a completion callback gets the epoch from the L1) or "
        f"keep the state on the object:\n" + "\n".join(sites)
    )


def test_lambda_rule_flags_function_bodies_only():
    source = (
        "f = lambda: 0\n"
        "def g(key=lambda x: x):\n"
        "    return sorted([], key=lambda x: x)\n"
        "class C:\n"
        "    h = lambda self: 1\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            return lambda: 2\n"
        "        return inner, (lambda: 3, lambda: 4)\n"
    )
    assert lambdas_in_functions(source, "m") == [
        "m:3", "m:8", "m:9", "m:9",
    ]


def _keywords_allowed(func: ast.expr, namespace: dict) -> bool:
    """Whether a call of ``func`` may pass keywords: a name bound to a
    probe event class of ``repro.obs.events`` or to a C builtin, or such
    a class named through its module (``obs.Commit``)."""
    if isinstance(func, ast.Name):
        target = namespace.get(func.id, getattr(builtins, func.id, None))
    elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = namespace.get(func.value.id)
        if not isinstance(module, types.ModuleType):
            return False
        target = getattr(module, func.attr, None)
    else:
        return False
    if isinstance(target, types.BuiltinFunctionType):
        return True
    return isinstance(target, type) and target.__module__ == "repro.obs.events"


def keyword_calls(source: str, namespace: dict) -> List[str]:
    """``module:line`` of each call inside a function body that passes
    keyword arguments (``**mapping`` included) to anything but the
    allowed callees.  Module-level code, class bodies and a function's
    defaults run once, so their calls are not counted."""
    sites = {
        node.lineno
        for func in ast.walk(ast.parse(source))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in func.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and node.keywords
        and not _keywords_allowed(node.func, namespace)
    }
    name = namespace["__name__"]
    return [f"{name}:{line}" for line in sorted(sites)]


def test_message_hop_passes_no_keywords():
    sites = [
        site
        for module in event_path_modules(NO_KEYWORD_PACKAGES)
        for site in keyword_calls(Path(module.__file__).read_text(), vars(module))
    ]
    assert not sites, (
        f"{len(sites)} keyword calls inside functions of "
        f"{', '.join(NO_KEYWORD_PACKAGES)}; pass the arguments "
        f"positionally (make_message's parameters are ordered so that "
        f"each message shape is a positional prefix):\n" + "\n".join(sites)
    )


def test_keyword_rule_flags_function_bodies_only():
    source = (
        "from repro.obs.events import MsgSent\n"
        "f = dict(a=1)\n"
        "def g(x, default=dict(b=2)):\n"
        "    h(x, flag=True)\n"
        "    if x:\n"
        "        MsgSent(cycle=1)\n"
        "    return min(x, key=abs), h(**x)\n"
        "class C:\n"
        "    k = dict(c=3)\n"
        "    def m(self):\n"
        "        self.min(1, key=abs)\n"
        "        return lambda: h(y=1)\n"
    )
    namespace = {"__name__": "m"}
    exec(compile(source, "m", "exec"), namespace)
    assert keyword_calls(source, namespace) == ["m:4", "m:7", "m:11", "m:12"]


def test_keyword_rule_allows_probe_events_through_their_module():
    source = (
        "from repro.obs import events as obs\n"
        "import json\n"
        "def f(x):\n"
        "    obs.Commit(cycle=1, core=0, epoch=x)\n"
        "    json.dumps(x, sort_keys=True)\n"
        "    return x.Commit(cycle=1)\n"
    )
    namespace = {"__name__": "m"}
    exec(compile(source, "m", "exec"), namespace)
    assert keyword_calls(source, namespace) == ["m:5", "m:6"]
