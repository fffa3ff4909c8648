"""The host-speed reference is deterministic and costs one kernel run per sample.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import hostref  # noqa: E402


def test_kernel_returns_the_pinned_checksum():
    assert hostref.kernel() == hostref.CHECKSUM


def test_bracket_shares_kernel_runs_between_samples():
    ref = hostref.HostRef()
    values = [ref.bracket(lambda i=i: i) for i in range(3)]
    assert [v for v, _scale in values] == [0, 1, 2]
    assert len(ref.runs) == 4  # kernel, sample, kernel, sample, kernel, sample, kernel
    assert all(scale > 0 for _value, scale in values)


def test_bracket_scales_by_the_mean_of_the_neighbouring_runs():
    ref = hostref.HostRef()
    (_, scale) = ref.bracket(lambda: None)
    before, after = ref.runs
    assert scale == 2 * hostref.NOMINAL_S / (before + after)
