"""Shared fixtures for the figure-regeneration benches.

Every bench wraps one figure of the paper.  ``pedantic(rounds=1)`` is used
throughout: a figure is a deterministic batch of simulations, so repeated
timing rounds would only measure the runner cache.

Scale/threads/seed come from the ``REPRO_SCALE`` / ``REPRO_THREADS`` /
``REPRO_SEED`` environment variables (see ``repro.experiments.runner``).

The bench suite shares the runner's two-level sweep cache: distinct
figures reuse each other's simulations in-process, and the on-disk cache
(``.repro_cache``; disable with ``--repro-no-cache`` or relocate with
``--repro-cache-dir``) makes a re-run of the whole suite cost zero
simulations.  ``--repro-workers N`` (or ``REPRO_WORKERS``) fans each
figure's declared config set over N worker processes.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

#: Configs of every bench's ``run_many`` batches by manifest source
#: (``run``, ``memory`` or ``disk``), tallied through the runner's
#: progress hook for the closing summary.
_SOURCES: Counter = Counter()


def _tally(done, total, cfg, source) -> None:
    _SOURCES[source] += 1


def pytest_addoption(parser):
    group = parser.getgroup("repro")
    group.addoption(
        "--repro-workers",
        type=int,
        default=None,
        help="worker processes for the simulation sweeps "
        "(default: $REPRO_WORKERS or 1)",
    )
    group.addoption(
        "--repro-no-cache",
        action="store_true",
        help="disable the on-disk result cache for this bench run",
    )
    group.addoption(
        "--repro-cache-dir",
        default=None,
        help="disk cache location (default: $REPRO_CACHE_DIR or "
        ".repro_cache)",
    )


def pytest_configure(config):
    from repro.experiments import runner

    workers = config.getoption("--repro-workers", default=None)
    if workers is not None:
        os.environ["REPRO_WORKERS"] = str(workers)
    runner.configure(
        cache_dir=config.getoption("--repro-cache-dir", default=None),
        disk_cache=(
            False
            if config.getoption("--repro-no-cache", default=False)
            else None
        ),
        progress=_tally,
    )


@pytest.fixture
def run_once(benchmark):
    """Run ``fn`` exactly once under pytest-benchmark timing."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from repro.experiments import runner

    terminalreporter.write_line(
        "repro benches regenerate every table/figure of the CHATS paper; "
        "see EXPERIMENTS.md for the paper-vs-measured comparison."
    )
    terminalreporter.write_line(
        f"repro runner: {_SOURCES['run']} simulations executed, "
        f"{_SOURCES['memory']} memory hits, {_SOURCES['disk']} disk "
        f"hits (workers={runner.default_workers()}, "
        f"cache={'on' if runner.disk_cache_enabled() else 'off'} at "
        f"{runner.cache_dir()})"
    )
