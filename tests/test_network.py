"""Unit tests for messages and the crossbar interconnect."""

import pytest

from repro.net.messages import DIRECTORY, Message, MessageKind, make_message
from repro.net.network import Crossbar
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.simulator import Simulator
from repro.workloads.scripted import ScriptedWorkload
from tests.conftest import deliver_all


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
        """Each kind costs the flits its class has in the
        ``SystemConfig``."""
        config = SystemConfig(data_message_flits=9, control_message_flits=2)
        net = Crossbar(Engine(), config)
        deliver_all(net, lambda m: None)
        for kind in MessageKind:
            net.send(make_message(kind=kind, src=0, dst=1, block=1))
        assert net.flits_by_kind == {
            kind: 9 if kind.carries_data else 2 for kind in MessageKind
        }


class TestCrossbar:
    def _net(self):
        engine = Engine()
        delivered = []
        net = Crossbar(engine, SystemConfig())
        deliver_all(net, delivered.append)
        return engine, net, delivered

    def test_delivery_after_link_latency(self):
        engine, net, delivered = self._net()
        net.send(make_message(kind=MessageKind.GETS, src=0, dst=1, block=1))
        assert delivered == []
        engine.run()
        assert len(delivered) == 1
        assert engine.now == 1  # Table I: single-cycle crossbar

    def test_extra_delay(self):
        engine, net, delivered = self._net()
        net.send(
            make_message(kind=MessageKind.DATA, src=DIRECTORY, dst=1, block=1),
            extra_delay=30,
        )
        engine.run()
        assert engine.now == 31

    def test_flit_accounting(self):
        engine, net, _ = self._net()
        net.send(make_message(kind=MessageKind.GETS, src=0, dst=-1, block=1))
        net.send(make_message(kind=MessageKind.DATA, src=-1, dst=0, block=1))
        stats = net.stats()
        assert stats["messages"] == 2
        assert stats["flits"] == 6  # 1 control + 5 data
        assert stats["control_flits"] == 1
        assert stats["data_flits"] == 5

    def test_spec_resp_flits_tracked(self):
        engine, net, _ = self._net()
        net.send(make_message(kind=MessageKind.SPEC_RESP, src=0, dst=1, block=1))
        assert net.stats()["spec_resp_flits"] == 5

    def test_fifo_between_same_pair(self):
        engine, net, delivered = self._net()
        for i in range(5):
            net.send(make_message(kind=MessageKind.GETS, src=0, dst=1, block=i))
        engine.run()
        assert [m.block for m in delivered] == list(range(5))


class TestMessageLifecycle:
    """A message is a plain record: whoever keeps it can read it."""

    SENT = dict(
        kind=MessageKind.SPEC_RESP, src=3, dst=1, block=0x40, data=(1, 2),
        requester=3, exclusive=True, pic=7, power=True, timestamp=9,
        epoch=2, req_id=11, can_consume=False, is_validation=True,
        non_transactional=True, req_produced=True, req_consumed=True,
        action="xfer",
    )

    def test_kept_message_keeps_every_field(self):
        def idle():
            yield from ()

        sim = Simulator(
            ScriptedWorkload([idle]), config=SystemConfig(num_cores=2)
        )
        kept = []
        spec_resp = MessageKind.SPEC_RESP.idx
        sim.l1s[1]._handlers[spec_resp] = kept.append  # keeps, no call
        sim.l1s[0]._handlers[spec_resp] = lambda msg: None
        sim.network.send(make_message(**self.SENT))
        sim.engine.run()
        # More traffic, each message dropped by its handler.
        for i in range(4):
            sim.network.send(
                make_message(kind=MessageKind.SPEC_RESP, src=2, dst=0, block=i)
            )
        sim.engine.run()
        [msg] = kept
        assert {name: getattr(msg, name) for name in self.SENT} == self.SENT

    def test_retained_message_keeps_every_field(self):
        """Every slot of a ``Message`` a receiver keeps off the crossbar
        reads as sent after more traffic."""
        assert set(self.SENT) == set(Message.__slots__)
        engine, kept = Engine(), []
        net = Crossbar(engine, SystemConfig())
        deliver_all(net, kept.append)
        net.send(make_message(**self.SENT))
        for i in range(4):
            net.send(make_message(kind=MessageKind.GETS, src=0, dst=1, block=i))
        engine.run()
        assert {name: getattr(kept[0], name) for name in self.SENT} == self.SENT

    def test_router_poisons_only_unretained_deliveries(self):
        """The crossbar hands each delivery to its destination's handler
        and poisons none: the one a handler keeps and the one a handler
        drops both read as sent."""

        def idle():
            yield from ()

        sim = Simulator(
            ScriptedWorkload([idle]), config=SystemConfig(num_cores=2)
        )
        kept = []
        spec_resp = MessageKind.SPEC_RESP.idx
        sim.l1s[0]._handlers[spec_resp] = lambda msg: None
        sim.l1s[1]._handlers[spec_resp] = kept.append
        dropped = make_message(**{**self.SENT, "dst": 0})
        held = make_message(**self.SENT)
        sim.network.send(dropped)
        sim.network.send(held)
        sim.engine.run()
        assert kept == [held]
        for msg, dst in ((dropped, 0), (held, 1)):
            sent = {**self.SENT, "dst": dst}
            assert {name: getattr(msg, name) for name in sent} == sent


class TestDelivery:
    """The crossbar schedules the destination's handler for the kind."""

    def _sim(self):
        def idle():
            yield from ()

        return Simulator(
            ScriptedWorkload([idle]), config=SystemConfig(num_cores=2)
        )

    def test_each_kind_reaches_its_destinations_handler(self):
        sim = self._sim()
        seen = []
        for dst, table in ((0, sim.l1s[0]._handlers),
                           (1, sim.l1s[1]._handlers),
                           (DIRECTORY, sim.directory._handlers)):
            for kind in MessageKind:
                table[kind.idx] = (
                    lambda msg, dst=dst, kind=kind: seen.append((dst, kind))
                )
        sent = [(dst, kind) for dst in (1, DIRECTORY, 0) for kind in MessageKind]
        for dst, kind in sent:
            sim.network.send(make_message(kind=kind, src=0, dst=dst, block=1))
        sim.engine.run()
        assert seen == sent

    def test_unhandled_kind_raises_at_delivery(self):
        """A kind its destination cannot handle raises; it never vanishes
        as a cancelled event."""
        sim = self._sim()
        sim.network.send(
            make_message(kind=MessageKind.GETS, src=1, dst=0, block=1)
        )
        with pytest.raises(RuntimeError, match="L1 cannot handle"):
            sim.engine.run()
        sim.network.send(
            make_message(kind=MessageKind.DATA, src=0, dst=DIRECTORY, block=1)
        )
        with pytest.raises(RuntimeError, match="directory cannot handle"):
            sim.engine.run()

    def test_connect_refuses_a_none_handler(self):
        net = Crossbar(Engine(), SystemConfig(num_cores=1))
        tables = [[lambda msg: None] * len(MessageKind) for _ in range(2)]
        tables[1][MessageKind.ACK.idx] = None
        with pytest.raises(ValueError, match="None"):
            net.connect(tables)
