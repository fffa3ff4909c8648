"""Unit tests for the six conflict-resolution policies.

Each test constructs a holder transaction state and a conflicting probe
message directly and checks the decision matrix of Section VI-B.
"""

import pytest

from repro.htm.stats import AbortReason
from repro.htm.txstate import TxState
from repro.mem.address import Geometry
from repro.mem.memory import MainMemory
from repro.net.messages import MessageKind, make_message
from repro.sim.config import table2_config
from repro.systems import ForwardClass, paper, registered_systems
from repro.systems.conflict import BaselineRW, make_policy
from repro.systems.outcome import Resolution

BLOCK = 42


def holder_tx(
    memory,
    *,
    system=paper.CHATS,
    wrote=True,
    read=False,
    pic=None,
    cons=False,
    power=False,
    timestamp=None,
):
    tx = TxState(
        core_id=0,
        epoch=1,
        memory=memory,
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
    return tx


def probe(
    *,
    pic=None,
    power=False,
    can_consume=True,
    non_transactional=False,
    timestamp=None,
    req_produced=False,
    req_consumed=False,
):
    return make_message(
        kind=MessageKind.FWD_GETX,
        src=-1,
        dst=0,
        block=BLOCK,
        requester=1,
        exclusive=True,
        pic=pic,
        power=power,
        can_consume=can_consume,
        non_transactional=non_transactional,
        timestamp=timestamp,
        req_produced=req_produced,
        req_consumed=req_consumed,
    )


def no_inflight(block):
    return False


@pytest.fixture
def mem():
    return MainMemory(Geometry())


class TestBaseline:
    def test_always_requester_wins(self, mem):
        policy = make_policy(table2_config(paper.BASELINE))
        assert isinstance(policy, BaselineRW)
        out = policy.resolve(holder_tx(mem, system=paper.BASELINE), probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.CONFLICT


class TestNaive:
    def policy(self):
        return make_policy(table2_config(paper.NAIVE_RS))

    def test_forwards_without_restrictions(self, mem):
        out = self.policy().resolve(
            holder_tx(mem, system=paper.NAIVE_RS), probe(), no_inflight
        )
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic is None  # naive carries no PiC

    def test_non_transactional_requests_always_win(self, mem):
        out = self.policy().resolve(
            holder_tx(mem, system=paper.NAIVE_RS),
            probe(non_transactional=True),
            no_inflight,
        )
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_requester_without_vsb_slot(self, mem):
        out = self.policy().resolve(
            holder_tx(mem, system=paper.NAIVE_RS),
            probe(can_consume=False),
            no_inflight,
        )
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_validation_budget_exhaustion(self, mem):
        policy = self.policy()
        tx = holder_tx(mem, system=paper.NAIVE_RS)
        tx.naive_budget = 2
        assert policy.on_unsuccessful_validation(tx) is None
        assert policy.on_unsuccessful_validation(tx) is AbortReason.NAIVE_LIMIT

    def test_successful_validation_resets_budget(self, mem):
        policy = self.policy()
        tx = holder_tx(mem, system=paper.NAIVE_RS)
        tx.naive_budget = 1
        policy.on_successful_validation(tx)
        assert tx.naive_budget == 16


class TestCHATSPolicy:
    def policy(self):
        return make_policy(table2_config(paper.CHATS))

    def test_forward_unchained_pair(self, mem):
        tx = holder_tx(mem)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic == 15
        assert tx.pic.value == 15  # holder anchored at PiC_init

    def test_requester_wins_on_cycle_risk(self, mem):
        tx = holder_tx(mem, pic=10, cons=True)
        out = self.policy().resolve(tx, probe(pic=12), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.CYCLE

    def test_forward_to_lower_pic(self, mem):
        tx = holder_tx(mem, pic=10, cons=True)
        out = self.policy().resolve(tx, probe(pic=5), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic == 10

    def test_spec_received_block_never_forwarded(self, mem):
        tx = holder_tx(mem)
        tx.vsb.insert(BLOCK, (0,) * 8)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.CONFLICT

    def test_heuristic_blocks_read_set_with_pending_write(self, mem):
        tx = holder_tx(mem, wrote=False, read=True)
        out = self.policy().resolve(tx, probe(), lambda b: b == BLOCK)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_written_block_forwards_despite_heuristic(self, mem):
        tx = holder_tx(mem, wrote=True)
        out = self.policy().resolve(tx, probe(), lambda b: b == BLOCK)
        assert out.resolution is Resolution.FORWARD_SPEC

    def test_w_class_refuses_read_only_blocks(self, mem):
        htm = table2_config(paper.CHATS).replace(forward_class=ForwardClass.W)
        policy = make_policy(htm)
        tx = holder_tx(mem, wrote=False, read=True)
        out = policy.resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_rw_class_forwards_read_only_blocks(self, mem):
        htm = table2_config(paper.CHATS).replace(forward_class=ForwardClass.RW)
        policy = make_policy(htm)
        tx = holder_tx(mem, wrote=False, read=True)
        out = policy.resolve(tx, probe(), lambda b: True)  # heuristic off
        assert out.resolution is Resolution.FORWARD_SPEC


class TestPowerPolicy:
    def policy(self):
        return make_policy(table2_config(paper.POWER))

    def test_power_holder_nacks(self, mem):
        tx = holder_tx(mem, system=paper.POWER, power=True)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.NACK

    def test_power_requester_wins(self, mem):
        tx = holder_tx(mem, system=paper.POWER)
        out = self.policy().resolve(tx, probe(power=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.POWER

    def test_plain_conflicts_use_requester_wins(self, mem):
        tx = holder_tx(mem, system=paper.POWER)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_non_tx_beats_power_holder(self, mem):
        tx = holder_tx(mem, system=paper.POWER, power=True)
        out = self.policy().resolve(tx, probe(non_transactional=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL


class TestPCHATSPolicy:
    def policy(self):
        return make_policy(table2_config(paper.PCHATS))

    def test_power_holder_forwards_without_pic(self, mem):
        tx = holder_tx(mem, system=paper.PCHATS, power=True)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic is None
        assert out.from_power

    def test_power_holder_nacks_when_unforwardable(self, mem):
        tx = holder_tx(mem, system=paper.PCHATS, power=True)
        out = self.policy().resolve(tx, probe(can_consume=False), no_inflight)
        assert out.resolution is Resolution.NACK

    def test_power_requester_never_consumes(self, mem):
        tx = holder_tx(mem, system=paper.PCHATS)
        out = self.policy().resolve(tx, probe(power=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL
        assert out.abort_reason is AbortReason.POWER

    def test_plain_conflicts_fall_back_to_chats(self, mem):
        tx = holder_tx(mem, system=paper.PCHATS)
        out = self.policy().resolve(tx, probe(), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic == 15


class TestLEVCPolicy:
    def policy(self):
        return make_policy(table2_config(paper.LEVC))

    def fresh(self, mem, **kw):
        return holder_tx(mem, system=paper.LEVC, timestamp=10, **kw)

    def test_forwards_when_unrestricted(self, mem):
        tx = self.fresh(mem)
        out = self.policy().resolve(tx, probe(timestamp=20), no_inflight)
        assert out.resolution is Resolution.FORWARD_SPEC
        assert out.message_pic is None

    def test_single_consumer_restriction(self, mem):
        tx = self.fresh(mem)
        tx.mark_forwarded()
        out = self.policy().resolve(tx, probe(timestamp=20), no_inflight)
        assert out.resolution is Resolution.NACK  # younger requester stalls

    def test_chain_length_restriction(self, mem):
        tx = self.fresh(mem)
        tx.mark_consumed()
        out = self.policy().resolve(tx, probe(timestamp=20), no_inflight)
        assert out.resolution is Resolution.NACK

    def test_requester_must_be_endpoint(self, mem):
        tx = self.fresh(mem)
        out = self.policy().resolve(
            tx, probe(timestamp=20, req_produced=True), no_inflight
        )
        assert out.resolution is Resolution.NACK

    def test_older_requester_aborts_holder(self, mem):
        """The forwarding-oblivious victim selection the paper criticises:
        even a holder that has forwarded loses to an older requester."""
        tx = self.fresh(mem)
        tx.mark_forwarded()  # it has a dependent consumer!
        out = self.policy().resolve(tx, probe(timestamp=5), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL

    def test_non_transactional_wins(self, mem):
        tx = self.fresh(mem)
        out = self.policy().resolve(tx, probe(non_transactional=True), no_inflight)
        assert out.resolution is Resolution.ABORT_LOCAL


#: (holder state, probe) pairs reaching every branch of every policy.
SCENARIOS = {
    "unchained pair": ({}, {}),
    "requester below holder": ({"pic": 10, "cons": True}, {"pic": 5}),
    "cycle risk": ({"pic": 10, "cons": True}, {"pic": 12}),
    "holder re-anchors": ({"pic": 10}, {"pic": 12}),
    "unconsumable": ({}, {"can_consume": False}),
    "power holder": ({"power": True}, {}),
    "power requester": ({}, {"power": True}),
    "non-transactional": ({}, {"non_transactional": True}),
    "younger requester": ({"timestamp": 10}, {"timestamp": 20}),
    "older requester": ({"timestamp": 10}, {"timestamp": 5}),
    "chained requester": (
        {"timestamp": 10},
        {"timestamp": 20, "req_produced": True},
    ),
}


class TestSharedOutcomes:
    @pytest.mark.parametrize(
        "system", registered_systems(), ids=lambda spec: spec.name
    )
    def test_same_conflict_returns_the_same_object(self, mem, system):
        """Outcomes are shared instances, never built per conflict:
        resolving the same holder state and probe twice returns the very
        same object."""
        policy = make_policy(table2_config(system))
        for name, (holder_kw, probe_kw) in SCENARIOS.items():
            first, again = (
                policy.resolve(
                    holder_tx(mem, system=system, **holder_kw),
                    probe(**probe_kw),
                    no_inflight,
                )
                for _ in range(2)
            )
            assert again is first, name
