"""Unit + property tests for the Position in Chain register — the Fig. 3
case analysis of Section IV-C."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.core.pic import PiCRegister
from repro.experiments.runner import RunConfig, simulate
from repro.htm.stats import AbortReason
from repro.sim.config import HTMConfig


def make_pic(value=None, cons=False, limit=31, init=15) -> PiCRegister:
    pic = PiCRegister(limit=limit, init=init)
    pic.value = value
    pic.cons = cons
    return pic


class TestFig3Cases:
    """``forward_pic`` returns the PiC stamped on the SpecResp (None for
    requester-wins) and re-anchors the register in place."""

    def test_case_a_both_unset(self):
        """Fig. 3A: two unconnected transactions; holder anchors at init."""
        pic = make_pic()
        assert pic.forward_pic(None) == 15
        assert pic.value == 15

    def test_case_b_holder_chained_requester_unset(self):
        """Fig. 3B: chained holder keeps its PiC; requester adopts below."""
        pic = make_pic(value=20)
        assert pic.forward_pic(None) == 20
        assert pic.value == 20

    def test_case_c_holder_unset_requester_chained(self):
        """Fig. 3C: unchained holder hooks in above the requester."""
        pic = make_pic(value=None)
        assert pic.forward_pic(12) == 13
        assert pic.value == 13

    def test_case_d_consuming_holder_must_abort_on_higher(self):
        """Fig. 3D: remote above local while Cons is set: requester-wins."""
        pic = make_pic(value=10, cons=True)
        assert pic.forward_pic(12) is None
        assert pic.value == 10

    def test_case_e_equal_pics_with_cons_abort(self):
        """Fig. 3E: identical PiCs with unvalidated data: requester-wins."""
        pic = make_pic(value=10, cons=True)
        assert pic.forward_pic(10) is None
        assert pic.value == 10

    def test_case_f_validated_holder_reanchors(self):
        """Fig. 3F: Cons clear: the holder climbs above the requester."""
        pic = make_pic(value=10, cons=False)
        assert pic.forward_pic(12) == 13
        assert pic.value == 13

    def test_case_g_forward_to_lower(self):
        """Rule (ii): remote below local is always safe to forward."""
        pic = make_pic(value=10, cons=True)  # even while consuming
        assert pic.forward_pic(7) == 10
        assert pic.value == 10


class TestOverflowUnderflow:
    def test_overflow_resolves_to_requester_wins(self):
        pic = make_pic(value=None)
        assert pic.forward_pic(30) is None  # 30 + 1 == limit
        assert pic.value is None

    def test_overflow_when_climbing(self):
        pic = make_pic(value=5, cons=False)
        assert pic.forward_pic(30) is None
        assert pic.value == 5

    def test_underflow_checked_on_requesters_behalf(self):
        # Holder at 0: the requester would need PiC -1 — refuse.
        pic = make_pic(value=0)
        assert pic.forward_pic(None) is None
        assert pic.value == 0

    def test_unchained_pair_with_init_zero_refuses(self):
        """Fig. 3A anchored at 0 would leave the requester no PiC below."""
        pic = make_pic(limit=4, init=0)
        assert pic.forward_pic(None) is None
        assert pic.value is None


def reference_decision(local, remote, cons, limit, init):
    """The Section IV-C table, case by case: ``(stamped PiC, holder PiC
    afterwards)``, with a stamped PiC of None for requester-wins (the
    holder's PiC then stays ``local``)."""
    refuse = (None, local)
    if local is None and remote is None:  # Fig. 3A
        return (init, init) if init - 1 >= 0 else refuse
    if local is None:  # Fig. 3C
        return (remote + 1, remote + 1) if remote + 1 < limit else refuse
    if remote is None:  # Fig. 3B
        return (local, local) if local - 1 >= 0 else refuse
    if remote < local:  # rule (ii)
        return (local, local)
    if cons:  # Fig. 3D/3E
        return refuse
    return (remote + 1, remote + 1) if remote + 1 < limit else refuse  # 3F


class TestAgainstReferenceTable:
    @pytest.mark.parametrize("pic_bits", [2, 5])
    def test_every_state_matches_the_table(self, pic_bits):
        htm = HTMConfig(pic_bits=pic_bits)
        limit, init = htm.pic_limit, htm.pic_init
        values = [None, *range(limit)]
        for local, remote, cons in itertools.product(
            values, values, (False, True)
        ):
            pic = make_pic(value=local, cons=cons, limit=limit, init=init)
            stamped = pic.forward_pic(remote)
            assert (stamped, pic.value) == reference_decision(
                local, remote, cons, limit, init
            ), (local, remote, cons)
            assert pic.cons is cons  # the decision never touches Cons


class TestAdoption:
    def test_unchained_consumer_adopts_below_producer(self):
        pic = make_pic()
        pic.adopt_from_spec_resp(15)
        assert pic.value == 14
        assert pic.cons

    def test_chained_consumer_keeps_pic(self):
        pic = make_pic(value=9)
        pic.adopt_from_spec_resp(15)
        assert pic.value == 9
        assert pic.cons

    def test_power_producer_spec_resp_keeps_pic(self):
        """PCHATS: power producers carry no PiC; consumers keep theirs."""
        pic = make_pic(value=None)
        pic.adopt_from_spec_resp(None)
        assert pic.value is None
        assert pic.cons

    def test_adoption_underflow_is_a_protocol_error(self):
        pic = make_pic()
        with pytest.raises(ValueError):
            pic.adopt_from_spec_resp(0)


class TestValidationCheck:
    def test_lower_remote_is_cycle(self):
        pic = make_pic(value=10)
        assert pic.validation_check(9)
        assert pic.validation_check(10)

    def test_higher_remote_is_fine(self):
        pic = make_pic(value=10)
        assert not pic.validation_check(11)

    def test_no_pic_no_check(self):
        assert not make_pic(value=None).validation_check(5)
        assert not make_pic(value=10).validation_check(None)


class TestValidationCheckEndToEnd:
    """The policy consults the validation-time PiC check in a full run.

    vacation under PCHATS (16 threads, scale 0.2, workload seed 2) is a
    config whose run fires the check: one unsuccessful validation sees a
    SpecResp PiC at or below its own and aborts with ``cycle``.  With the
    check bypassed the stale chain is left to resolve itself, and the run
    ends later with no ``cycle`` abort at all.
    """

    def run(self):
        return simulate(
            RunConfig.make("vacation", "pchats", threads=16, scale=0.2, seed=2)
        )

    def test_check_fires_once(self):
        result = self.run()
        assert result.cycles == 2992
        assert result.stats.aborts[AbortReason.CYCLE] == 1

    def test_bypassed_check_changes_the_run(self, monkeypatch):
        monkeypatch.setattr(
            PiCRegister, "validation_check", lambda self, message_pic: False
        )
        result = self.run()
        assert result.cycles == 3103
        assert result.stats.aborts[AbortReason.CYCLE] == 0


class TestLifecycle:
    def test_reset(self):
        pic = make_pic(value=10, cons=True)
        pic.reset()
        assert pic.value is None and not pic.cons

    def test_clear_cons_keeps_pic(self):
        """Section IV-B: after the VSB drains the PiC stays valid until
        commit — the transaction may still be a producer."""
        pic = make_pic(value=10, cons=True)
        pic.clear_cons()
        assert pic.value == 10 and not pic.cons

    def test_init_must_be_in_range(self):
        with pytest.raises(ValueError):
            PiCRegister(limit=8, init=8)


class TestInvariants:
    @given(
        local=st.one_of(st.none(), st.integers(0, 30)),
        remote=st.one_of(st.none(), st.integers(0, 30)),
        cons=st.booleans(),
    )
    def test_forward_always_orders_producer_above_consumer(
        self, local, remote, cons
    ):
        """The CHATS invariant: whenever the holder forwards, its
        (possibly updated) PiC is strictly greater than the PiC the
        requester will end up with."""
        pic = make_pic(value=local, cons=cons)
        stamped = pic.forward_pic(remote)
        if stamped is None:
            return
        assert stamped == pic.value
        consumer = PiCRegister(limit=31, init=15)
        consumer.value = remote
        consumer.adopt_from_spec_resp(stamped)
        assert consumer.value is not None
        assert pic.value > consumer.value

    @given(
        local=st.one_of(st.none(), st.integers(0, 30)),
        remote=st.one_of(st.none(), st.integers(0, 30)),
    )
    def test_consuming_holder_never_climbs(self, local, remote):
        """While Cons is set, a decision may never raise the local PiC
        (it could climb past a producer)."""
        pic = make_pic(value=local, cons=True)
        pic.forward_pic(remote)
        if local is not None:
            # Updates are only allowed for unchained holders hooking in.
            assert pic.value == local

    @given(st.one_of(st.none(), st.integers(0, 30)), st.booleans())
    def test_requester_wins_leaves_register_unchanged(self, remote, cons):
        pic = make_pic(value=12, cons=cons)
        if pic.forward_pic(remote) is None:
            assert pic.value == 12 and pic.cons is cons
