"""Ablation (beyond the paper): the validation-time PiC cycle check.

Stale PiC exchanges can let a cycle form (Section IV-C); CHATS detects it
during validation by comparing the local PiC against the one carried by
the speculative response, aborting the validator.  With the check
disabled, stuck consumers only escape through a bounded number of
fruitless validation attempts — correctness survives, the escape is just
slower and blinder.
"""

from __future__ import annotations

from repro.experiments.runner import run_cached
from repro.sim.config import table2_config
from repro.systems import paper

WORKLOADS = ("llb-h", "kmeans-h", "intruder")


def test_ablation_validation_pic_check(run_once):
    def sweep():
        on = {
            w: run_cached(w, paper.CHATS) for w in WORKLOADS
        }
        htm = table2_config(paper.CHATS).replace(validation_pic_check=False)
        off = {
            w: run_cached(w, paper.CHATS, htm=htm) for w in WORKLOADS
        }
        return on, off

    on, off = run_once(sweep)
    print()
    print("Validation-time PiC cycle check ablation (CHATS):")
    print(f"{'workload':<12s}{'check ON':>12s}{'check OFF':>12s}{'ratio':>8s}")
    for w in WORKLOADS:
        ratio = off[w].cycles / on[w].cycles
        print(f"{w:<12s}{on[w].cycles:>12,d}{off[w].cycles:>12,d}{ratio:>8.2f}")

    # Both configurations complete and stay correct (oracles ran inside);
    # the check may only help or be neutral in aggregate.
    total_on = sum(r.cycles for r in on.values())
    total_off = sum(r.cycles for r in off.values())
    assert total_on <= total_off * 1.10, (
        "the PiC validation check should not hurt aggregate performance"
    )
