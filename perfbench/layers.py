"""The fixed module -> layer map, and cProfile self time bucketed by it.

Every module under ``src/repro/`` belongs to exactly one layer.  A rule is
either an exact module name or ``package.*`` (every module below that
package, the package itself included).  Rules never overlap, so a module
matches exactly one of them or none; ``tests/test_layers.py`` fails when
a module matches none, so a module added later has to be placed here.

Code outside the package (interpreter builtins such as ``list.append``,
the standard library) is the ``builtins`` layer.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: (rule, layer), grouped by layer.  A module outside its layer's own
#: package is placed by what its hot code does.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    # engine: the event loop, and the wiring that feeds it events.
    ("repro.sim.engine", "engine"),
    ("repro.sim.simulator", "engine"),  # Simulator._route: per-message dispatch
    ("repro.sim", "engine"),  # package __init__
    ("repro.accel", "engine"),  # backend selection, engine/router factories
    # net: message records and the crossbar.
    ("repro.net.*", "net"),
    # l1 / directory: the two coherence controllers.
    ("repro.mem.l1controller", "l1"),
    ("repro.mem.directory", "directory"),
    # core: the simulated cores and the per-transaction HTM state.
    ("repro.sim.core", "core"),
    ("repro.sim.config", "core"),
    ("repro.sim.invariants", "core"),
    ("repro.htm.*", "core"),
    # policy: conflict resolution, forwarding, PiC, VSB validation.
    ("repro.systems.*", "policy"),
    ("repro.core.*", "policy"),
    # mem: caches, main memory, address geometry.
    ("repro.mem", "mem"),  # package __init__
    ("repro.mem.cache", "mem"),
    ("repro.mem.memory", "mem"),
    ("repro.mem.address", "mem"),
    # workloads: generators and the ops they yield.
    ("repro.workloads.*", "workloads"),
    ("repro.sim.ops", "workloads"),
    # obs: probes, tracers, telemetry.
    ("repro.obs.*", "obs"),
    ("repro.sim.tracing", "obs"),
    # runner: config enumeration, the batch runner, result payloads, CLI.
    ("repro", "runner"),
    ("repro.__main__", "runner"),
    ("repro.experiments", "runner"),  # package __init__
    ("repro.experiments.runner", "runner"),
    ("repro.experiments.registry", "runner"),
    ("repro.experiments.bench", "runner"),
    ("repro.sim.results", "runner"),
    ("repro.accel.lanes", "runner"),
    # store: the result store backends.
    ("repro.store.*", "store"),
    # figures: figure assembly and the analysis it renders with.
    ("repro.experiments.figures", "figures"),
    ("repro.analysis.*", "figures"),
)

#: Layers whose self time cProfile attributes, in report order.
PROFILED_LAYERS = (
    "engine",
    "net",
    "l1",
    "directory",
    "core",
    "policy",
    "mem",
    "workloads",
    "obs",
    "runner",
    "store",
    "figures",
    "builtins",
)

UNMAPPED = "unmapped"


def _matches(rule: str, module: str) -> bool:
    if rule.endswith(".*"):
        package = rule[:-2]
        return module == package or module.startswith(package + ".")
    return module == rule


def matching_rules(module: str) -> List[Tuple[str, str]]:
    """Every rule that claims ``module`` (exactly one when it is placed)."""
    return [(rule, layer) for rule, layer in LAYER_RULES if _matches(rule, module)]


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module, or ``unmapped``."""
    rules = matching_rules(module)
    return rules[0][1] if len(rules) == 1 else UNMAPPED


def package_modules(src: Path) -> List[str]:
    """Dotted names of every module under ``src/repro``."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


class ProfileBuckets:
    """cProfile self time summed per layer."""

    def __init__(self, src: Path):
        self._src = str(src.resolve()) + "/"
        self._module_cache: Dict[str, Optional[str]] = {}

    def _module(self, filename: str) -> Optional[str]:
        if filename not in self._module_cache:
            module = None
            if filename.startswith(self._src) and filename.endswith(".py"):
                parts = filename[len(self._src):-3].split("/")
                if parts[-1] == "__init__":
                    parts.pop()
                if parts and parts[0] == "repro":
                    module = ".".join(parts)
            self._module_cache[filename] = module
        return self._module_cache[filename]

    def layer_of_file(self, filename: str) -> str:
        module = self._module(filename)
        return "builtins" if module is None else layer_of(module)

    def bucket(self, stats: dict) -> Dict[str, float]:
        """``pstats.Stats(...).stats`` -> {layer: self seconds}."""
        out = {layer: 0.0 for layer in PROFILED_LAYERS}
        out[UNMAPPED] = 0.0
        for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in stats.items():
            out[self.layer_of_file(filename)] += tt
        return out

    def calls(self, stats: dict, module_file: str, func: str) -> int:
        """Total calls of ``func`` defined in ``src/<module_file>``."""
        target = self._src + module_file
        return sum(
            nc
            for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in stats.items()
            if filename == target and name == func
        )


def unplaced(modules: Iterable[str]) -> List[str]:
    """Modules that match no rule or more than one."""
    return [m for m in modules if len(matching_rules(m)) != 1]
