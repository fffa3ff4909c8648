"""Golden determinism: the simulator's observable behaviour, bit-for-bit.

Every STAMP workload is replayed for two seeds under three HTM systems
(the matrix defined in ``scripts/gen_golden.py``) and the complete
canonical ``SimulationResult`` is hashed against the digests checked in
at ``tests/golden_digests.json`` — produced by the pre-optimisation
(seed) event engine.  A mismatch means an engine or protocol change
altered event ordering, conflict resolution, stats accounting, or even
the number of processed events: none of the hot-path optimisations are
allowed to do that.

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

CASES = [
    (workload, system, seed)
    for workload in gen_golden.STAMP_WORKLOADS
    for system in gen_golden.SYSTEMS
    for seed in gen_golden.SEEDS
]


#: Every selectable backend must reproduce the same digests ("auto" is
#: just an alias for one of these).  Unbuilt/unavailable backends skip
#: cleanly so the suite passes on a pure-Python checkout.
BACKENDS = ("python", "compiled")


@pytest.fixture(params=BACKENDS)
def backend(request):
    from repro import accel

    name = request.param
    if name == "compiled" and not accel.compiled_available():
        pytest.skip(
            "compiled backend not built (scripts/build_accel.py)"
        )
    with accel.use(name):
        yield name


def test_matrix_matches_checked_in_digests():
    """The checked-in file covers exactly the generator's matrix."""
    expected = {gen_golden.case_key(w, sy, se) for (w, sy, se) in CASES}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize(
    "workload,system,seed",
    CASES,
    ids=[gen_golden.case_key(w, sy, se) for (w, sy, se) in CASES],
)
def test_digest_is_golden(backend, workload, system, seed):
    result = gen_golden.run_case(workload, system, seed)
    digest = gen_golden.result_digest(result)
    key = gen_golden.case_key(workload, system, seed)
    assert digest == GOLDEN[key], (
        f"behavioural drift in {key} under the {backend} backend: digest "
        f"{digest[:12]} != golden {GOLDEN[key][:12]} — if this change is "
        f"intentional, regenerate with scripts/gen_golden.py --write"
    )
