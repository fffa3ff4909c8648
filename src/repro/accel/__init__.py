"""The two calls ``perfbench/run.py`` and ``perfbench/pin.py`` still make.

The simulator has one backend, pure Python.  The next change to
``perfbench/`` drops both calls, and then this module goes.
"""

import contextlib


@contextlib.contextmanager
def use(name: str):
    """Run the block on backend ``name``; only ``"python"`` exists."""
    if name != "python":
        raise ValueError(f"unknown backend {name!r}; the only one is 'python'")
    yield name


def resolved_backend() -> str:
    return "python"
