"""Crossbar interconnect model.

The paper's machine uses a single-cycle crossbar (Table I).  We model it as
a fixed per-hop latency and count flits per message class for Fig. 7.  The
network never reorders messages between the same (src, dst) pair: ties in
delivery time are broken by send order via the engine's FIFO tie-break.

``send`` is one of the two hottest functions in the simulator (with
``Engine.run``), so the per-message work is precomputed and minimal: the
crossbar keeps one delivery count per message kind (a dense list indexed
by ``kind.idx``, so no enum member is hashed), and the flit totals are
derived from those counts, each kind's count times its class's flits
(Table I), when they are read; the destination's handler for the
message's kind is scheduled as the event itself, so a delivery is one
call with no routing frame.  A
:class:`~repro.net.messages.Message` is a plain record that lives as long
as something references it, so the network never recycles or
invalidates one after delivery.

``multicast`` delivers one record to several destinations: the
directory's invalidation round builds one INV and the crossbar hands it
to every sharer, each delivery accounted as one message.  So a handler
never writes a delivered message, which another destination may still
be about to read.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.events import MsgSent, SpecForward
from ..obs.probe import Probe
from ..sim.config import SystemConfig
from ..sim.engine import Engine
from .messages import GETX, SPEC_RESP, Message, MessageKind


Handler = Callable[[Message], None]


class Crossbar:
    """Delivers messages after ``link_latency`` cycles and accounts flits.

    Nothing is delivered before :meth:`connect` gives the handler tables.
    """

    __slots__ = (
        "_engine",
        "_config",
        "_tables",
        "_probe",
        "_schedule",
        "_data_flits",
        "_control_flits",
        "_link_latency",
        "_sent_by_idx",
    )

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        *,
        probe: Optional[Probe] = None,
    ):
        self._engine = engine
        self._config = config
        self._tables: Optional[List[List[Handler]]] = None
        self._probe = probe if probe is not None else Probe()
        self._schedule = engine.schedule
        self._data_flits = config.data_message_flits
        self._control_flits = config.control_message_flits
        self._link_latency = config.link_latency
        #: Deliveries of each kind, by ``kind.idx``.
        self._sent_by_idx = [0] * len(MessageKind)

    def connect(self, tables: Sequence[List[Handler]]) -> None:
        """Give the delivery tables once the controllers exist.

        ``tables[dst][kind.idx]`` handles a message of that kind sent to
        ``dst``: cores ``0..N-1``, then the directory last, which
        ``DIRECTORY == -1`` indexes.  The lists are used as given, not
        copied.  A kind a destination cannot handle needs an entry that
        raises: ``None`` is refused, because to the engine a ``None``
        event is a cancelled one and would vanish silently.
        """
        tables = list(tables)
        if any(fn is None for table in tables for fn in table):
            raise ValueError(
                "a delivery table entry is None; give a handler that raises"
            )
        self._tables = tables

    @property
    def messages_sent(self) -> int:
        """Messages delivered (a multicast counts one per destination)."""
        return sum(self._sent_by_idx)

    @property
    def flits_sent(self) -> int:
        """Flits of every message delivered."""
        return sum(self._flit_totals())

    def _flit_totals(self) -> List[int]:
        """Flits delivered of each kind, by ``kind.idx``: its count times
        its class's flits (Table I)."""
        data, control = self._data_flits, self._control_flits
        return [
            count * (data if kind.carries_data else control)
            for kind, count in zip(MessageKind, self._sent_by_idx)
        ]

    @property
    def flits_by_kind(self) -> Counter:
        """Per-kind flit totals (Counter keyed by :class:`MessageKind`)."""
        return Counter(
            {
                kind: flits
                for kind, flits in zip(MessageKind, self._flit_totals())
                if flits
            }
        )

    def _emit_traced(self, msg: Message, dst: int) -> None:
        """Probe emission for a traced delivery to ``dst``; ``send`` and
        ``multicast`` call it only when the probe has subscribers."""
        kind = msg.kind
        now = self._engine.now
        probe = self._probe
        probe.emit(
            MsgSent(
                cycle=now,
                src=msg.src,
                dst=dst,
                msg_kind=kind.value,
                block=msg.block,
                pic=msg.pic,
                power=msg.power,
                is_validation=msg.is_validation,
                non_transactional=msg.non_transactional,
                action=msg.action,
            )
        )
        if kind is SPEC_RESP:
            probe.emit(
                SpecForward(
                    cycle=now,
                    producer=msg.src,
                    consumer=dst,
                    block=msg.block,
                    pic=msg.pic,
                )
            )

    def send(self, msg: Message, extra_delay: int = 0) -> None:
        """Inject ``msg``; it is delivered after the link latency plus
        ``extra_delay``."""
        idx = msg.kind.idx
        self._sent_by_idx[idx] += 1
        if self._probe._subscribers:
            self._emit_traced(msg, msg.dst)
        self._schedule(
            self._link_latency + extra_delay, self._tables[msg.dst][idx], msg
        )

    def multicast(
        self, msg: Message, dsts: Sequence[int], extra_delay: int = 0
    ) -> None:
        """Deliver the one record ``msg`` to every node of ``dsts``, in
        order, after the link latency.

        Each destination costs what a ``send`` to it would: one message,
        its flits and, when traced, one ``MsgSent``.  ``msg.dst`` is not
        read, since the record has no single destination.
        """
        idx = msg.kind.idx
        self._sent_by_idx[idx] += len(dsts)
        traced = self._probe._subscribers
        schedule = self._schedule
        tables = self._tables
        delay = self._link_latency + extra_delay
        for dst in dsts:
            if traced:
                self._emit_traced(msg, dst)
            schedule(delay, tables[dst][idx], msg)

    def stats(self) -> Dict[str, int]:
        validation_kinds = (GETX, SPEC_RESP)
        by_idx = self._flit_totals()
        return {
            "flits": self.flits_sent,
            "messages": self.messages_sent,
            "data_flits": sum(
                by_idx[kind.idx] for kind in MessageKind if kind.carries_data
            ),
            "control_flits": sum(
                by_idx[kind.idx] for kind in MessageKind if not kind.carries_data
            ),
            "spec_resp_flits": by_idx[SPEC_RESP.idx],
            "_validation_kinds": sum(
                by_idx[kind.idx] for kind in validation_kinds
            ),
        }
