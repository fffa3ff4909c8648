"""Unit tests for messages and the crossbar interconnect."""

from repro import accel
from repro.net.messages import DIRECTORY, Message, MessageKind
from repro.net.network import Crossbar
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.simulator import Simulator
from repro.workloads.scripted import ScriptedWorkload


class TestMessageKinds:
    def test_data_carrying_kinds(self):
        carrying = {k for k in MessageKind if k.carries_data}
        assert carrying == {
            MessageKind.DATA,
            MessageKind.DATA_E,
            MessageKind.SPEC_RESP,
            MessageKind.WRITEBACK,
        }

    def test_flit_classification(self):
        data = Message(kind=MessageKind.SPEC_RESP, src=0, dst=1, block=1)
        ctrl = Message(kind=MessageKind.GETS, src=0, dst=DIRECTORY, block=1)
        assert data.flits == 5
        assert ctrl.flits == 1

    def test_unique_uids(self):
        a = Message(kind=MessageKind.GETS, src=0, dst=1, block=1)
        b = Message(kind=MessageKind.GETS, src=0, dst=1, block=1)
        assert a.uid != b.uid


class TestCrossbar:
    def _net(self):
        engine = Engine()
        delivered = []
        # Retain on capture: the router poisons delivered messages.
        net = Crossbar(
            engine, SystemConfig(), lambda m: delivered.append(m.retain())
        )
        return engine, net, delivered

    def test_delivery_after_link_latency(self):
        engine, net, delivered = self._net()
        net.send(Message(kind=MessageKind.GETS, src=0, dst=1, block=1))
        assert delivered == []
        engine.run()
        assert len(delivered) == 1
        assert engine.now == 1  # Table I: single-cycle crossbar

    def test_extra_delay(self):
        engine, net, delivered = self._net()
        net.send(
            Message(kind=MessageKind.DATA, src=DIRECTORY, dst=1, block=1),
            extra_delay=30,
        )
        engine.run()
        assert engine.now == 31

    def test_flit_accounting(self):
        engine, net, _ = self._net()
        net.send(Message(kind=MessageKind.GETS, src=0, dst=-1, block=1))
        net.send(Message(kind=MessageKind.DATA, src=-1, dst=0, block=1))
        stats = net.stats()
        assert stats["messages"] == 2
        assert stats["flits"] == 6  # 1 control + 5 data
        assert stats["control_flits"] == 1
        assert stats["data_flits"] == 5

    def test_spec_resp_flits_tracked(self):
        engine, net, _ = self._net()
        net.send(Message(kind=MessageKind.SPEC_RESP, src=0, dst=1, block=1))
        assert net.stats()["spec_resp_flits"] == 5

    def test_fifo_between_same_pair(self):
        engine, net, delivered = self._net()
        for i in range(5):
            net.send(Message(kind=MessageKind.GETS, src=0, dst=1, block=i))
        engine.run()
        assert [m.block for m in delivered] == list(range(5))


class TestMessageLifecycle:
    """The Python ``Message`` is poisoned on ``release()``, never reused."""

    def full_message(self, dst=5):
        return Message(
            kind=MessageKind.SPEC_RESP, src=3, dst=dst, block=0x40,
            data=(1, 2), requester=3, exclusive=True, pic=7, power=True,
            timestamp=9, epoch=2, req_id=11, can_consume=False,
            is_validation=True, non_transactional=True, req_produced=True,
            req_consumed=True, action="xfer",
        )

    def fields(self, msg):
        return {name: getattr(msg, name) for name in Message.__slots__}

    def assert_poisoned(self, msg):
        assert (msg.kind, msg.data, msg.action) == (None, None, None)
        assert repr(msg) == "<released Message>"

    def test_release_poisons(self):
        msg = self.full_message()
        msg.release()
        self.assert_poisoned(msg)

    def test_retained_message_keeps_every_field(self):
        msg = self.full_message().retain()
        before = self.fields(msg)
        msg.release()
        assert self.fields(msg) == before

    def test_second_release_is_harmless(self):
        msg = self.full_message()
        msg.release()
        msg.release()
        self.assert_poisoned(msg)

    def test_message_after_release_is_a_new_object(self):
        stale = self.full_message()
        stale.release()
        fresh = Message(kind=MessageKind.GETX, src=2, dst=3, block=2)
        assert fresh is not stale
        assert fresh.kind is MessageKind.GETX
        self.assert_poisoned(stale)

    def test_router_poisons_only_unretained_deliveries(self):
        def idle():
            yield from ()

        with accel.use("python"):
            sim = Simulator(
                ScriptedWorkload([idle]), config=SystemConfig(num_cores=2)
            )
            kept, retained = [], []
            sim._dst_handlers[0] = kept.append
            sim._dst_handlers[1] = lambda m: retained.append(m.retain())
            unretained = self.full_message(dst=0)
            held = self.full_message(dst=1)
            before = self.fields(held)
            sim.network.send(unretained)
            sim.network.send(held)
            sim.engine.run()
        assert kept == [unretained] and retained == [held]
        self.assert_poisoned(unretained)
        assert self.fields(held) == {**before, "_retained": True}
