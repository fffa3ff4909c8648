"""Property-based tests over the policy decision space: for every
reachable (holder state, probe) combination, each policy must produce a
well-formed outcome respecting its system's defining constraints."""

from hypothesis import given, strategies as st

from repro.htm.stats import AbortReason
from repro.htm.txstate import TxState
from repro.mem.address import Geometry
from repro.mem.memory import MainMemory
from repro.net.messages import MessageKind, make_message
from repro.sim.config import table2_config
from repro.systems import paper
from repro.systems.conflict import make_policy
from repro.systems.outcome import Resolution

BLOCK = 5


def make_holder(
    system,
    *,
    wrote,
    read,
    pic,
    cons,
    power,
    timestamp,
    has_consumer,
    has_consumed,
):
    tx = TxState(
        core_id=0,
        epoch=1,
        memory=MainMemory(Geometry()),
        htm=table2_config(system),
        power=power,
        timestamp=timestamp,
    )
    if wrote:
        tx.track_write(BLOCK)
    if read:
        tx.track_read(BLOCK)
    tx.pic.value = pic
    tx.pic.cons = cons
    tx.record.forwarded = has_consumer
    tx.record.consumed = has_consumed
    return tx


holder_strategy = st.fixed_dictionaries(
    {
        "wrote": st.booleans(),
        "read": st.booleans(),
        "pic": st.one_of(st.none(), st.integers(0, 30)),
        "cons": st.booleans(),
        "power": st.booleans(),
        "timestamp": st.integers(1, 100),
        "has_consumer": st.booleans(),
        "has_consumed": st.booleans(),
    }
)

probe_strategy = st.fixed_dictionaries(
    {
        "pic": st.one_of(st.none(), st.integers(0, 30)),
        "power": st.booleans(),
        "can_consume": st.booleans(),
        "non_transactional": st.booleans(),
        "timestamp": st.integers(1, 100),
        "req_produced": st.booleans(),
        "req_consumed": st.booleans(),
    }
)


def make_probe(p):
    return make_message(
        kind=MessageKind.FWD_GETX,
        src=-1,
        dst=0,
        block=BLOCK,
        requester=1,
        exclusive=True,
        **p,
    )


ALL = (
    paper.BASELINE,
    paper.NAIVE_RS,
    paper.CHATS,
    paper.POWER,
    paper.PCHATS,
    paper.LEVC,
)


class TestUniversalProperties:
    @given(h=holder_strategy, p=probe_strategy, system=st.sampled_from(ALL))
    def test_outcome_well_formed(self, h, p, system):
        # The holder must actually hold something for a conflict to exist.
        if not (h["wrote"] or h["read"]):
            h["wrote"] = True
        holder = make_holder(system, **h)
        policy = make_policy(table2_config(system))
        out = policy.resolve(holder, make_probe(p), lambda b: False)
        assert out.resolution in Resolution
        if out.resolution is Resolution.FORWARD_SPEC:
            # Only forwarding systems may forward.
            assert system.forwards
        if out.resolution is Resolution.ABORT_LOCAL:
            assert isinstance(out.abort_reason, AbortReason)

    @given(h=holder_strategy, p=probe_strategy, system=st.sampled_from(ALL))
    def test_non_transactional_always_requester_wins(self, h, p, system):
        """Section IV-A: conflicting non-transactional requests always
        resolve requester-wins, in every system."""
        h["wrote"] = True
        p["non_transactional"] = True
        holder = make_holder(system, **h)
        policy = make_policy(table2_config(system))
        out = policy.resolve(holder, make_probe(p), lambda b: False)
        assert out.resolution is Resolution.ABORT_LOCAL

    @given(h=holder_strategy, p=probe_strategy)
    def test_chats_never_forwards_unconsumable(self, h, p):
        h["wrote"] = True
        p["can_consume"] = False
        p["non_transactional"] = False
        holder = make_holder(paper.CHATS, **h)
        policy = make_policy(table2_config(paper.CHATS))
        out = policy.resolve(holder, make_probe(p), lambda b: False)
        assert out.resolution is Resolution.ABORT_LOCAL

    @given(h=holder_strategy, p=probe_strategy)
    def test_chats_forward_implies_pic_dominance(self, h, p):
        """Whenever CHATS forwards, the holder's post-decision PiC must
        strictly dominate what the consumer will adopt."""
        h["wrote"] = True
        p["non_transactional"] = False
        p["power"] = False
        h["power"] = False
        holder = make_holder(paper.CHATS, **h)
        policy = make_policy(table2_config(paper.CHATS))
        out = policy.resolve(holder, make_probe(p), lambda b: False)
        if out.resolution is Resolution.FORWARD_SPEC:
            assert out.message_pic == holder.pic.value
            consumer_pic = (
                p["pic"] if p["pic"] is not None else out.message_pic - 1
            )
            assert holder.pic.value > consumer_pic

    @given(h=holder_strategy, p=probe_strategy)
    def test_power_holder_never_aborted_by_transactions(self, h, p):
        """In both Power and PCHATS, a transactional probe can never make
        an elevated holder abort."""
        h["wrote"] = True
        h["power"] = True
        p["non_transactional"] = False
        for system in (paper.POWER, paper.PCHATS):
            holder = make_holder(system, **h)
            policy = make_policy(table2_config(system))
            out = policy.resolve(holder, make_probe(p), lambda b: False)
            assert out.resolution is not Resolution.ABORT_LOCAL

    @given(h=holder_strategy, p=probe_strategy)
    def test_pchats_power_requester_never_offered_spec(self, h, p):
        h["wrote"] = True
        h["power"] = False
        p["power"] = True
        p["non_transactional"] = False
        holder = make_holder(paper.PCHATS, **h)
        policy = make_policy(table2_config(paper.PCHATS))
        out = policy.resolve(holder, make_probe(p), lambda b: False)
        assert out.resolution is Resolution.ABORT_LOCAL

    @given(h=holder_strategy, p=probe_strategy)
    def test_levc_restrictions_enforced(self, h, p):
        """LEVC never forwards when the holder already has a consumer,
        has consumed, or the requester is not a chain endpoint."""
        h["wrote"] = True
        p["non_transactional"] = False
        holder = make_holder(paper.LEVC, **h)
        policy = make_policy(table2_config(paper.LEVC))
        out = policy.resolve(holder, make_probe(p), lambda b: False)
        if out.resolution is Resolution.FORWARD_SPEC:
            assert not h["has_consumer"]
            assert not h["has_consumed"]
            assert not p["req_produced"]
            assert not p["req_consumed"]

    @given(h=holder_strategy, p=probe_strategy, system=st.sampled_from(ALL))
    def test_resolve_never_mutates_sets(self, h, p, system):
        """Policies may update chain state (PiC, LEVC flags) but must not
        touch the read/write sets."""
        h["wrote"] = True
        holder = make_holder(system, **h)
        before = (set(holder.write_set), holder.reads(BLOCK))
        policy = make_policy(table2_config(system))
        policy.resolve(holder, make_probe(p), lambda b: False)
        assert (set(holder.write_set), holder.reads(BLOCK)) == before
