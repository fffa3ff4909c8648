"""Registry entries for the paper's six evaluated systems (Section VI-B).

Each entry records the system's conflict policy and its best
cost-effective Table II parameters: Baseline retries=6; Naive R-S
retries=2, VSB=4, 50-cycle validation; CHATS retries=32, VSB=4, 50-cycle
validation; Power retries=2; PCHATS retries=1; LEVC-BE-Idealized
retries=64 with a 0-cycle validation interval.
"""

from __future__ import annotations

from .spec import ForwardClass, SystemSpec, register, register_alias

BASELINE = register(
    SystemSpec(
        name="baseline",
        label="Baseline",
        policy="requester-wins",
        retries=6,
    ),
    paper=True,
)

NAIVE_RS = register(
    SystemSpec(
        name="naive-rs",
        label="Naive R-S",
        policy="speculates-naive",
        retries=2,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=50,
    ),
    paper=True,
)

CHATS = register(
    SystemSpec(
        name="chats",
        label="CHATS",
        policy="speculates-pic",
        retries=32,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=50,
    ),
    paper=True,
)

POWER = register(
    SystemSpec(
        name="power",
        label="Power",
        policy="requester-wins",
        priority="power",
        retries=2,
    ),
    paper=True,
)

PCHATS = register(
    SystemSpec(
        name="pchats",
        label="PCHATS",
        policy="speculates-pic",
        priority="power",
        retries=1,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=50,
    ),
    paper=True,
)

LEVC = register(
    SystemSpec(
        name="levc-be-idealized",
        label="LEVC-BE-Id",
        policy="speculates-levc",
        retries=64,
        forward_class=ForwardClass.R_RESTRICT_W,
        vsb_size=4,
        validation_interval=0,
    ),
    paper=True,
)

# The paper calls the requester-wins baseline "HTM-BE" (best-effort HTM);
# accept that name everywhere a system name is read without adding a
# second registry entry (sweeps and cache keys see only "baseline").
register_alias("htm-be", "baseline")
