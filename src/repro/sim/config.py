"""System and HTM configuration dataclasses.

``SystemConfig`` mirrors Table I of the paper (the machine model) and
``HTMConfig`` mirrors Table II (the per-system HTM parameters).  Both are
plain frozen dataclasses so that experiment definitions can be hashed and
cached by the experiment runner.

The HTM system itself is a :class:`~repro.systems.spec.SystemSpec` from
the composable system registry (:mod:`repro.systems`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from ..systems.spec import ForwardClass, SystemSpec, check_table2, get_spec
from ..systems import paper as _paper

__all__ = [
    "HTMConfig",
    "NOT_APPLICABLE",
    "SystemConfig",
    "table2_config",
]


@dataclass(frozen=True)
class SystemConfig:
    """Machine model parameters (Table I), scaled to the simulator.

    Latencies are expressed in simulated cycles.  The defaults follow the
    Golden-Cove-like setup of the paper: 16 cores, 48KiB/12-way L1D with
    1-cycle hits, shared L3 (30-cycle roundtrip), DDR4 memory, and a
    single-cycle crossbar with 16-byte flits (5 flits per data message, 1
    per control message).  The paper's private L2 (4-cycle roundtrip) has
    no latency of its own: an L1 miss pays ``directory_latency``, which
    counts an L2 miss plus the L3 lookup.
    """

    num_cores: int = 16

    # Geometry.
    block_bytes: int = 64
    word_bytes: int = 8
    l1_size_bytes: int = 48 * 1024
    l1_ways: int = 12

    # Latencies (cycles).
    l1_hit_latency: int = 1
    l3_roundtrip: int = 30
    memory_latency: int = 120
    link_latency: int = 1
    # The directory is co-located with the shared L3 (Table I): reaching
    # it costs an L2 miss plus the L3 lookup, so probes it forwards to
    # other cores arrive tens of cycles after the request was issued —
    # long after a short store burst at the owner has finished.
    directory_latency: int = 18

    # Network accounting.
    flit_bytes: int = 16
    data_message_flits: int = 5
    control_message_flits: int = 1

    # Base of the randomised exponential backoff between transaction
    # retries (cycles), as in RTM runtime retry loops.
    retry_backoff_base: int = 40

    # Ablation switch (Section V-A discussion): when True the L1 victim
    # selection avoids speculative (write-set) lines; when False plain LRU
    # applies and evicting an SM line costs a capacity abort.
    write_set_aware_replacement: bool = True

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        if self.block_bytes % self.word_bytes:
            raise ValueError("block size must be a multiple of the word size")
        lines = self.l1_size_bytes // self.block_bytes
        if lines % self.l1_ways:
            raise ValueError("L1 lines must divide evenly into ways")

    @property
    def words_per_block(self) -> int:
        return self.block_bytes // self.word_bytes

    @property
    def l1_lines(self) -> int:
        return self.l1_size_bytes // self.block_bytes

    @property
    def l1_sets(self) -> int:
        return self.l1_lines // self.l1_ways


#: Value used by Table II for fields that do not apply to a system.
NOT_APPLICABLE = None


@dataclass(frozen=True)
class HTMConfig:
    """Per-system HTM parameters (Table II).

    ``retries`` is the number of conflict-induced aborts tolerated before
    the fallback path is taken.  ``vsb_size`` and ``validation_interval``
    only apply to forwarding systems.  ``pic_bits`` sizes the Position in
    Chain register (CHATS/PCHATS); ``naive_validation_budget`` sizes the
    naive requester-speculates escape counter (4 bits → 16 attempts).
    """

    system: SystemSpec = _paper.BASELINE
    retries: int = 6
    forward_class: ForwardClass | None = None
    vsb_size: int | None = None
    validation_interval: int | None = None
    pic_bits: int = 5
    naive_validation_budget: int = 16
    # Power systems: aborts before requesting the power token.
    power_threshold: int = 2
    # Requester-stall systems (Power holder nacks, LEVC): cycles a nacked
    # requester waits before re-issuing its request.
    nack_retry_delay: int = 50
    # Ablation switch: the validation-time PiC comparison that catches
    # cycles created by stale PiC exchanges (Section IV-B).  When off,
    # consumers stuck in an undetected cycle escape through the
    # unsuccessful-validation budget instead (slower livelock recovery).
    validation_pic_check: bool = True
    # Read-set signature: None reproduces the paper's *perfect* signature
    # (Section VI-B); an integer selects a Bloom filter of that many bits,
    # whose false positives surface as spurious conflicts — an ablation of
    # the perfect-signature assumption.
    signature_bits: Optional[int] = None
    # Capacity-limited systems: bounded-entry read-set tracking (a
    # BoundedPerfectSignature of this many blocks) and a bounded write
    # set.  Exceeding either raises a ``capacity`` abort that transitions
    # straight to the fallback path.  ``None`` keeps the paper's unbounded
    # model.  ``read_set_limit`` is mutually exclusive with
    # ``signature_bits`` (both replace the perfect signature).
    read_set_limit: Optional[int] = None
    write_set_limit: Optional[int] = None

    def __post_init__(self) -> None:
        check_table2(self, self.system)
        if self.pic_bits < 2:
            raise ValueError("PiC needs at least 2 bits")

    @property
    def pic_limit(self) -> int:
        """Exclusive upper bound of the PiC range (2**bits values, one of
        which — the all-ones pattern — is reserved to encode the unset
        PiC)."""
        return (1 << self.pic_bits) - 1

    @property
    def pic_init(self) -> int:
        """Initial PiC, in the middle of the range to allow chains to grow
        from either end (Section IV-C)."""
        return self.pic_limit // 2

    def replace(self, **changes: object) -> "HTMConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


def table2_config(system: Union[SystemSpec, str]) -> HTMConfig:
    """Return the Table II configuration recorded in ``system``'s spec.

    Accepts a :class:`~repro.systems.spec.SystemSpec` or a registered
    system name; every registered system — paper or user-added — carries
    its own best cost-effective parameters, so this works for all of them.
    """
    spec = get_spec(system)
    return HTMConfig(
        system=spec,
        retries=spec.retries,
        forward_class=spec.forward_class,
        vsb_size=spec.vsb_size,
        validation_interval=spec.validation_interval,
        signature_bits=spec.signature_bits,
        read_set_limit=spec.read_set_limit,
        write_set_limit=spec.write_set_limit,
    )
