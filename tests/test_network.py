"""Unit tests for messages and the crossbar interconnect."""

from collections import defaultdict

import pytest

from repro.net.messages import DIRECTORY, Message, MessageKind, make_message
from repro.net.network import Crossbar
from repro.obs.events import MsgSent
from repro.obs.probe import Probe
from repro.sim.config import SystemConfig, table2_config
from repro.sim.engine import Engine
from repro.sim.ops import Read, Txn, Work, Write
from repro.sim.simulator import Simulator
from repro.systems import paper
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


def slots(msg):
    """Every field of ``msg``, by slot name."""
    return {name: getattr(msg, name) for name in Message.__slots__}


class TestMulticast:
    """``multicast`` delivers one record to several destinations, each
    delivery costing what a ``send`` to that destination costs."""

    DSTS = (1, 2, 5)

    def _net(self, probe=None):
        engine = Engine()
        delivered = []
        net = Crossbar(engine, SystemConfig(), probe=probe)
        net.connect(
            [
                [lambda msg, dst=dst: delivered.append((engine.now, dst, msg))]
                * len(MessageKind)
                for dst in range(17)
            ]
        )
        return engine, net, delivered

    @pytest.mark.parametrize("kind", [MessageKind.INV, MessageKind.SPEC_RESP])
    def test_costs_what_one_send_per_destination_costs(self, kind):
        _, sent, _ = self._net()
        for dst in self.DSTS:
            sent.send(make_message(kind=kind, src=DIRECTORY, dst=dst, block=1))
        _, multicast, _ = self._net()
        multicast.multicast(
            make_message(kind=kind, src=DIRECTORY, dst=None, block=1), self.DSTS
        )
        assert multicast.flits_sent == sent.flits_sent
        assert multicast.messages_sent == sent.messages_sent == len(self.DSTS)
        assert multicast.flits_by_kind == sent.flits_by_kind
        assert multicast.stats() == sent.stats()

    def test_delivers_the_record_in_destination_order(self):
        engine, net, delivered = self._net()
        inv = make_message(kind=MessageKind.INV, src=DIRECTORY, dst=None, block=1)
        net.multicast(inv, (5, 1, 2), extra_delay=6)
        engine.run()
        assert [(cycle, dst) for cycle, dst, _ in delivered] == [
            (7, 5), (7, 1), (7, 2)  # link latency 1 + extra delay 6
        ]
        assert all(msg is inv for _, _, msg in delivered)

    def test_traced_multicast_emits_one_msg_sent_per_destination(self):
        probe = Probe()
        events = []
        probe.subscribe(events.append)
        _, net, _ = self._net(probe)
        inv = make_message(
            kind=MessageKind.INV, src=DIRECTORY, dst=None, block=4,
            requester=3, pic=2,
        )
        net.multicast(inv, self.DSTS)
        assert all(isinstance(ev, MsgSent) for ev in events)
        assert [ev.dst for ev in events] == list(self.DSTS)
        assert {(ev.src, ev.msg_kind, ev.block, ev.pic) for ev in events} == {
            (DIRECTORY, "Inv", 4, 2)
        }

    def test_shared_inv_reads_as_sent_after_its_holders_handled_it(self):
        """Three CHATS readers hold a block when a fourth core writes it:
        the round's one INV record reaches all three conflicting holders,
        and no handler writes it."""
        x = 0x10_0000

        def reader():
            def body():
                yield Read(x)
                yield Work(600)

            yield Txn(body, ())

        def writer():
            yield Work(150)

            def body():
                yield Write(x, 1)

            yield Txn(body, ())

        sim = Simulator(
            ScriptedWorkload([reader, reader, reader, writer]),
            htm=table2_config(paper.CHATS),
            config=SystemConfig(num_cores=4),
        )
        seen = []  # (core, record, its fields at delivery)

        def watch(core, handle):
            def handler(msg):
                seen.append((core, msg, slots(msg)))
                handle(msg)

            return handler

        inv = MessageKind.INV.idx
        for core, l1 in enumerate(sim.l1s):
            l1._handlers[inv] = watch(core, l1._handlers[inv])
        sim.run(max_events=1_000_000)
        holders = defaultdict(list)
        for core, msg, _ in seen:
            holders[id(msg)].append(core)
        assert [0, 1, 2] in holders.values()
        assert sim.stats.spec_forwards >= 3  # the holders conflicted
        assert all(slots(msg) == sent for _, msg, sent in seen)


class TestPerKindCounts:
    """The crossbar counts deliveries per kind; every total is derived
    from those counts and the class flits (Table I)."""

    def test_mixed_sends_and_a_multicast(self):
        """Pinned numbers, equal to what the former running totals (one
        each for flits, messages and flits per kind) gave."""
        K = MessageKind
        net = Crossbar(
            Engine(), SystemConfig(data_message_flits=9, control_message_flits=2)
        )
        deliver_all(net, lambda msg: None)
        for kind, src, dst in [
            (K.GETS, 0, DIRECTORY),
            (K.DATA, DIRECTORY, 0),
            (K.GETX, 1, DIRECTORY),
            (K.SPEC_RESP, 2, 1),
            (K.UNBLOCK, 0, DIRECTORY),
            (K.GETS, 3, DIRECTORY),
            (K.DATA_E, DIRECTORY, 3),
            (K.WRITEBACK, 1, DIRECTORY),
            (K.DATA, 0, 2),
        ]:
            net.send(make_message(kind=kind, src=src, dst=dst, block=1))
        net.multicast(
            make_message(kind=K.INV, src=DIRECTORY, dst=None, block=1), (0, 2, 3)
        )
        # 7 control messages at 2 flits, 5 data messages at 9.
        assert net.messages_sent == 12
        assert net.flits_sent == 59
        assert net.flits_by_kind == {
            K.GETS: 4, K.GETX: 2, K.UNBLOCK: 2, K.INV: 6,
            K.DATA: 18, K.DATA_E: 9, K.SPEC_RESP: 9, K.WRITEBACK: 9,
        }
        assert net.stats() == {
            "flits": 59,
            "messages": 12,
            "data_flits": 45,
            "control_flits": 14,
            "spec_resp_flits": 9,
            "_validation_kinds": 11,  # GETX 2 + SPEC_RESP 9
        }


class TestPositionalShapes:
    def test_each_shape_is_a_positional_prefix(self):
        """The L1 and the directory build every message positionally;
        each shape fills the same fields as its keyword call."""
        K = MessageKind
        shapes = [
            (
                (K.NACK, 2, 1, 0x40, 3, 11),
                dict(kind=K.NACK, src=2, dst=1, block=0x40, epoch=3, req_id=11),
            ),
            (
                (K.DATA, DIRECTORY, 1, 0x40, 3, 11, (1, 2)),
                dict(kind=K.DATA, src=DIRECTORY, dst=1, block=0x40, epoch=3,
                     req_id=11, data=(1, 2)),
            ),
            (
                (K.UNBLOCK, 0, DIRECTORY, 0x40, 3, 11, None, 1, True, "xfer"),
                dict(kind=K.UNBLOCK, src=0, dst=DIRECTORY, block=0x40,
                     epoch=3, req_id=11, requester=1, exclusive=True,
                     action="xfer"),
            ),
            (
                (K.FWD_GETX, DIRECTORY, 0, 0x40, 3, 11, None, 1, True, None,
                 7, True, 9, False, True, True, True, True),
                dict(kind=K.FWD_GETX, src=DIRECTORY, dst=0, block=0x40,
                     epoch=3, req_id=11, requester=1, exclusive=True, pic=7,
                     power=True, timestamp=9, can_consume=False,
                     is_validation=True, non_transactional=True,
                     req_produced=True, req_consumed=True),
            ),
        ]
        for args, kwargs in shapes:
            assert slots(make_message(*args)) == slots(make_message(**kwargs))
