"""Golden determinism: the simulator's observable behaviour, bit-for-bit.

Every STAMP workload is replayed for two seeds under every registered
HTM system (the matrix defined in ``scripts/gen_golden.py``: 7 x 2 x 13
= 182 cases) and the complete canonical ``SimulationResult`` is hashed
against the digests checked in at ``tests/golden_digests.json``.  Those
of baseline, chats and pchats were produced by the pre-optimisation
(seed) event engine, the rest by commit 3b75d8b.  A mismatch means an
engine or protocol change altered event ordering, conflict resolution,
stats accounting, or even the number of processed events: none of the
hot-path optimisations are allowed to do that.

A few small traced runs are pinned the same way, by the sha256 of their
JSONL probe stream (``tests/golden_trace_digests.json``): a result digest
sees message totals, the stream sees every message and its destination.

Regenerate the digests only for an *intentional* behaviour change::

    PYTHONPATH=src python scripts/gen_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

# The generator script owns the matrix and the digest definition; import
# it so this test can never drift from the standalone checker.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import gen_golden  # noqa: E402

GOLDEN = json.loads(gen_golden.GOLDEN_PATH.read_text())
TRACE_GOLDEN = json.loads(gen_golden.TRACE_GOLDEN_PATH.read_text())

CASES = [
    (workload, system, seed)
    for workload in gen_golden.STAMP_WORKLOADS
    for system in gen_golden.SYSTEMS
    for seed in gen_golden.SEEDS
]


def test_matrix_covers_every_registered_system():
    from repro.systems.spec import registered_systems

    assert gen_golden.SYSTEMS == tuple(s.name for s in registered_systems())


def test_matrix_matches_checked_in_digests():
    """The checked-in file covers exactly the generator's matrix."""
    expected = {gen_golden.case_key(w, sy, se) for (w, sy, se) in CASES}
    assert set(GOLDEN) == expected


# The ids keep the ``python-`` prefix they had when every case also ran
# on a compiled engine, so each case keeps its id in test histories.
@pytest.mark.parametrize(
    "workload,system,seed",
    CASES,
    ids=[f"python-{gen_golden.case_key(w, sy, se)}" for (w, sy, se) in CASES],
)
def test_digest_is_golden(workload, system, seed):
    result = gen_golden.run_case(workload, system, seed)
    digest = gen_golden.result_digest(result)
    key = gen_golden.case_key(workload, system, seed)
    assert digest == GOLDEN[key], (
        f"behavioural drift in {key}: digest "
        f"{digest[:12]} != golden {GOLDEN[key][:12]} — if this change is "
        f"intentional, regenerate with scripts/gen_golden.py --write"
    )


def test_trace_cases_match_checked_in_digests():
    """The checked-in trace file covers exactly the generator's cases."""
    expected = {gen_golden.trace_key(*case) for case in gen_golden.TRACE_CASES}
    assert set(TRACE_GOLDEN) == expected


@pytest.mark.parametrize(
    "case",
    gen_golden.TRACE_CASES,
    ids=[gen_golden.trace_key(*case) for case in gen_golden.TRACE_CASES],
)
def test_trace_digest_is_golden(case):
    digest = gen_golden.trace_digest(*case)
    key = gen_golden.trace_key(*case)
    assert digest == TRACE_GOLDEN[key], (
        f"probe stream drift in {key}: digest {digest[:12]} != golden "
        f"{TRACE_GOLDEN[key][:12]} — if this change is intentional, "
        f"regenerate with scripts/gen_golden.py --write"
    )
