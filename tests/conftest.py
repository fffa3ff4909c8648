"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import accel
from repro.mem.address import AddressSpace, Geometry
from repro.mem.memory import MainMemory
from repro.net.messages import MessageKind
from repro.sim.config import HTMConfig, SystemConfig, table2_config
from repro.sim.simulator import Simulator
from repro.systems import SystemSpec, paper
from repro.workloads.scripted import ScriptedWorkload


@pytest.fixture(scope="session", autouse=True)
def private_cache_dir(tmp_path_factory):
    """Keep the result store out of the checkout: a test that does not
    pick a cache directory writes into a session-wide temporary one.  A
    test that checks the default must clear ``REPRO_CACHE_DIR`` itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        yield


@pytest.fixture(params=accel.BACKENDS)
def backend(request):
    """Run the test under each backend; ``compiled`` skips when the
    extension is not built."""
    name = request.param
    if name == "compiled" and not accel.compiled_available():
        pytest.skip("compiled backend not built (scripts/build_accel.py)")
    with accel.use(name):
        yield name


def deliver_all(net, deliver, destinations: int = 17) -> None:
    """Connect crossbar ``net`` so every message, whatever its kind and
    destination (cores ``0..destinations-2``, then the directory), goes
    to ``deliver``."""
    net.connect([[deliver] * len(MessageKind)] * destinations)


@pytest.fixture
def geometry() -> Geometry:
    return Geometry()


@pytest.fixture
def memory(geometry) -> MainMemory:
    return MainMemory(geometry)


@pytest.fixture
def space(geometry) -> AddressSpace:
    return AddressSpace(geometry)


@pytest.fixture
def small_config() -> SystemConfig:
    """A 4-core machine with a tiny L1 for eviction-path tests."""
    return SystemConfig(num_cores=4, l1_size_bytes=4 * 64 * 2, l1_ways=2)


def run_scripted(
    thread_fns,
    system: SystemSpec = paper.BASELINE,
    *,
    htm: HTMConfig = None,
    config: SystemConfig = None,
    initial=None,
    check=None,
    max_events: int = 3_000_000,
):
    """Build and run a ScriptedWorkload; returns (result, simulator)."""
    wl = ScriptedWorkload(list(thread_fns), initial=initial, check=check)
    htm = htm if htm is not None else table2_config(system)
    config = config if config is not None else SystemConfig(
        num_cores=max(2, len(thread_fns))
    )
    sim = Simulator(wl, htm=htm, config=config)
    result = sim.run(max_events=max_events)
    return result, sim


@pytest.fixture
def scripted():
    return run_scripted

