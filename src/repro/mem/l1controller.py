"""Per-core L1 controller: the meeting point of coherence and HTM.

Each core owns one :class:`L1Controller`.  It performs the core's memory
operations against the simulated machine (cache lookup, request issue,
response handling) and services incoming probes (forwards from the
directory, invalidations), where transactional conflicts are detected and
resolved through the configured :class:`~repro.systems.base.ConflictPolicy`.

Request/response bookkeeping uses per-request ids plus the transaction
attempt *epoch*: responses addressed to a dead attempt are dropped, which
is how the hardware's "ignore stale replies after rollback" behaviour is
modelled.

Completion callbacks are the caller's bound methods, called with plain
positional arguments: a transactional request's as ``fn(epoch, value)``
(the epoch of the attempt that issued it), a validation's as
``fn(epoch, msg)`` and a non-transactional request's as ``fn(value)``.
A write completes with ``None``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from ..htm.fallback import OwnershipTable
from ..htm.signature import FootprintOverflow
from ..htm.stats import CAPACITY, CONFLICT, HYBRID, LOCK, POWER, HTMStats
from ..htm.txstate import TxState
from ..net.messages import (
    ACK,
    CANCEL,
    DATA,
    DATA_E,
    DIRECTORY,
    FWD_GETS,
    FWD_GETX,
    GETS,
    GETX,
    INV,
    NACK,
    SPEC_RESP,
    UNBLOCK,
    UPGRADE,
    WRITEBACK,
    Message,
    MessageKind,
    make_message,
)
from ..net.network import Crossbar
from ..obs.events import PicUpdate, VsbInsert
from ..obs.probe import Probe
from ..sim.config import HTMConfig, SystemConfig
from ..sim.engine import Engine
from ..systems.base import ConflictPolicy
from ..systems.outcome import RESOLUTION_FORWARD_SPEC, RESOLUTION_NACK
from .address import Geometry
from .cache import CapacityAbort, L1Cache
from .memory import MainMemory

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.core import Core

#: ``fn(epoch, value)``: a transactional load or store completed.
TxCallback = Callable[[int, Optional[int]], None]
#: ``fn(value)``: a non-transactional load, store or CAS completed.
ValueCallback = Callable[[Optional[int]], None]
#: ``fn(epoch, msg)``: a validation request got its response.
MsgCallback = Callable[[int, Message], None]


class _Outstanding:
    """One MSHR entry: an in-flight request and its completion context.

    A ``__slots__`` record — one is allocated per coherence request, so
    it must stay a single compact allocation with no ``__dict__``.  It
    has no ``__init__``: :func:`_make_outstanding` builds it.
    """

    __slots__ = (
        "block",
        "exclusive",
        "transactional",
        "epoch",
        "is_validation",
        "on_value",
        "on_message",
        "write_value",
        "addr",
        "cas",
    )


_new_record = object.__new__


def _make_outstanding(
    block: int,
    exclusive: bool,
    transactional: bool,
    epoch: int,
    is_validation: bool,
    # Exactly one of the two callbacks is set: ``on_value`` is a
    # TxCallback or a ValueCallback, as ``transactional`` says.
    on_value: Optional[Callable] = None,
    on_message: Optional[MsgCallback] = None,
    # Pending non-transactional side effects applied at completion.
    write_value: Optional[int] = None,
    addr: int = 0,
    cas: Optional[tuple] = None,  # (expect, new)
) -> _Outstanding:
    """Build an :class:`_Outstanding`, as ``make_message`` builds a
    message: a keyword call to a class with a Python ``__init__`` packs
    the keywords into a dict and binds them again, which costs more than
    twice this function."""
    out = _new_record(_Outstanding)
    out.block = block
    out.exclusive = exclusive
    out.transactional = transactional
    out.epoch = epoch
    out.is_validation = is_validation
    out.on_value = on_value
    out.on_message = on_message
    out.write_value = write_value
    out.addr = addr
    out.cas = cas
    return out


class L1Controller:
    """Coherence + HTM endpoint for one core."""

    __slots__ = (
        "core_id",
        "_engine",
        "_config",
        "_htm",
        "_geometry",
        "_memory",
        "_network",
        "_policy",
        "_stats",
        "_lock_block",
        "_probe",
        "_orecs",
        "cache",
        "_outstanding",
        "_handlers",
        "core",
        "_forwards",
        "_bshift",
        "_hit_latency",
        "_send",
        "_schedule",
        "_Message",
        "_inflight_write",
    )

    _req_ids = itertools.count(1)

    def __init__(
        self,
        core_id: int,
        engine: Engine,
        config: SystemConfig,
        htm: HTMConfig,
        geometry: Geometry,
        memory: MainMemory,
        network: Crossbar,
        policy: ConflictPolicy,
        stats: HTMStats,
        lock_block: int,
        probe: Optional[Probe] = None,
        orecs: Optional[OwnershipTable] = None,
    ):
        self.core_id = core_id
        self._engine = engine
        self._config = config
        self._htm = htm
        self._geometry = geometry
        self._memory = memory
        self._network = network
        self._policy = policy
        self._stats = stats
        self._lock_block = lock_block
        self._probe = probe if probe is not None else Probe()
        # Hybrid-fallback systems only: the shared ownership-record table
        # hardware transactions must check on every access.  ``None`` for
        # every other system, keeping their access paths untouched.
        self._orecs = orecs
        self.cache = L1Cache(config)
        self._outstanding: Dict[int, _Outstanding] = {}
        # Hot-path constants/bound methods: the spec's forwarding hook
        # (derived from its conflict layer), the address→block shift
        # (``Geometry`` forces a power-of-two block size), the L1 hit
        # latency, the network injector and the engine scheduler are all
        # invariant after construction.
        self._forwards = htm.system.forwards
        self._bshift = geometry.block_bytes.bit_length() - 1
        self._hit_latency = config.l1_hit_latency
        self._send = network.send
        self._schedule = engine.schedule
        self._Message = make_message
        # Bound once: the policy gets the Rrestrict/W probe on every
        # conflict.
        self._inflight_write = self.has_inflight_exclusive
        #: Set lazily by the simulator after cores are built.
        self.core: "Core" = None  # type: ignore[assignment]
        # Dense dispatch table indexed by ``MessageKind.idx``.
        handlers: List[Callable[[Message], None]] = (
            [self._unexpected] * len(MessageKind)
        )
        handlers[FWD_GETS.idx] = self._handle_forwarded_probe
        handlers[FWD_GETX.idx] = self._handle_forwarded_probe
        handlers[INV.idx] = self._handle_inv
        handlers[DATA.idx] = self._handle_response
        handlers[DATA_E.idx] = self._handle_response
        handlers[SPEC_RESP.idx] = self._handle_response
        handlers[NACK.idx] = self._handle_response
        self._handlers = handlers

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------
    def _tx(self) -> Optional[TxState]:
        core = self.core
        tx = core.tx if core is not None else None
        if tx is not None and tx.active:
            return tx
        return None

    def has_inflight_exclusive(self, block: int) -> bool:
        """Rrestrict/W heuristic probe: is a local write to ``block``
        in flight or imminent?  Covers both an outstanding exclusive
        request and the store-address prediction from earlier attempts of
        the same transaction."""
        for o in self._outstanding.values():
            if o.block == block and o.exclusive and not o.is_validation:
                return True
        core = self.core
        return core is not None and core.write_predicted(block)

    def _send_request(
        self,
        kind: MessageKind,
        block: int,
        out: _Outstanding,
        non_transactional: bool = False,
        is_validation: bool = False,
    ) -> None:
        req_id = next(self._req_ids)
        self._outstanding[req_id] = out
        tx = self._tx() if not non_transactional else None
        if tx is not None:
            self._send(
                self._Message(
                    kind, self.core_id, DIRECTORY, block, out.epoch, req_id,
                    None, None, False, None,
                    tx.pic.value, tx.power, tx.timestamp,
                    is_validation
                    or (self._forwards and not tx.power and not tx.vsb.full),
                    is_validation, non_transactional,
                    tx.levc_has_produced, tx.levc_has_consumed,
                )
            )
        else:
            self._send(
                self._Message(
                    kind, self.core_id, DIRECTORY, block, out.epoch, req_id,
                    None, None, False, None,
                    None, False, None, False, is_validation, non_transactional,
                )
            )

    def _abort_capacity(self, tx: TxState, block: int) -> None:
        self.core.abort_tx(CAPACITY, None, block)

    def _check_orec(self, block: int) -> bool:
        """Hybrid instrumentation: a hardware transaction touching a block
        owned by another core's software slow path must abort (the slow
        path holds the record until its redo log is published, so reading
        around it would see a half-committed transaction).  Returns True
        when the access killed the attempt."""
        owner = self._orecs.owner(block)
        if owner is not None and owner != self.core_id:
            self.core.abort_tx(HYBRID, owner, block)
            return True
        return False

    def _install(
        self,
        block: int,
        state: str,
        speculative: bool = False,
        spec_received: bool = False,
    ) -> bool:
        """Install a line; on a capacity abort of the running transaction
        returns False (the caller's operation dies with the attempt)."""
        try:
            victim = self.cache.install(block, state, speculative, spec_received)
        except CapacityAbort:
            tx = self._tx()
            if tx is not None:
                self._abort_capacity(tx, block)
                return False
            raise
        if victim is not None and victim.state in ("E", "M"):
            # Notify the directory for owned victims so it does not keep
            # forwarding to us; shared victims are evicted silently.
            self._send(
                self._Message(
                    WRITEBACK, self.core_id, DIRECTORY, victim.block, 0, 0,
                    self._memory.block_value(victim.block),
                )
            )
        return True

    # ------------------------------------------------------------------
    # Transactional operations (called by the core driver).
    # ------------------------------------------------------------------
    def tx_read(self, tx: TxState, addr: int, callback: TxCallback) -> None:
        block = addr >> self._bshift
        if self._orecs is not None and self._check_orec(block):
            return  # hybrid slow-path owner: the attempt just died
        try:
            tx.track_read(block)
        except FootprintOverflow:
            self._abort_capacity(tx, block)
            return
        line = self.cache.lookup(block)
        if line is not None:
            self._schedule(
                self._hit_latency, callback, tx.epoch, tx.store.read_word(addr)
            )
            return
        out = _make_outstanding(
            block, False, True, tx.epoch, False, callback, None, None, addr
        )
        self._send_request(GETS, block, out)

    def tx_write(
        self, tx: TxState, addr: int, value: int, callback: TxCallback
    ) -> None:
        block = addr >> self._bshift
        if self._orecs is not None and self._check_orec(block):
            return  # hybrid slow-path owner: the attempt just died
        try:
            tx.track_write(block)
        except FootprintOverflow:
            self._abort_capacity(tx, block)
            return
        tx.store.write_word(addr, value)
        line = self.cache.lookup(block)
        if line is not None and line.state in ("E", "M"):
            line.state = "M"
            if not line.speculative:
                self.cache.mark_speculative(block)
            self._schedule(self._hit_latency, callback, tx.epoch, None)
            return
        out = _make_outstanding(
            block, True, True, tx.epoch, False, callback, None, None, addr
        )
        kind = UPGRADE if line is not None else GETX
        self._send_request(kind, block, out)

    def issue_validation(
        self, tx: TxState, block: int, callback: MsgCallback
    ) -> None:
        """Validation controller path: exclusive re-request of a VSB block."""
        out = _make_outstanding(block, True, True, tx.epoch, True, None, callback)
        self._send_request(GETX, block, out, False, True)

    # ------------------------------------------------------------------
    # Non-transactional operations.
    # ------------------------------------------------------------------
    def nontx_read(self, addr: int, callback: ValueCallback) -> None:
        block = addr >> self._bshift
        line = self.cache.lookup(block)
        if line is not None:
            self._schedule(
                self._hit_latency, callback, self._memory.read_word(addr)
            )
            return
        out = _make_outstanding(
            block, False, False, 0, False, callback, None, None, addr
        )
        self._send_request(GETS, block, out, True)

    def nontx_write(self, addr: int, value: int, callback: ValueCallback) -> None:
        block = addr >> self._bshift
        line = self.cache.lookup(block)
        if line is not None and line.state in ("E", "M") and not line.speculative:
            line.state = "M"
            self._memory.write_word(addr, value)
            self._schedule(self._hit_latency, callback, None)
            return
        out = _make_outstanding(
            block, True, False, 0, False, callback, None, value, addr
        )
        self._send_request(GETX, block, out, True)

    def nontx_cas(
        self, addr: int, expect: int, new: int, callback: ValueCallback
    ) -> None:
        block = addr >> self._bshift
        line = self.cache.lookup(block)
        if line is not None and line.state in ("E", "M") and not line.speculative:
            observed = self._memory.read_word(addr)
            if observed == expect:
                self._memory.write_word(addr, new)
            self._schedule(self._hit_latency, callback, observed)
            return
        out = _make_outstanding(
            block, True, False, 0, False, callback, None, None, addr,
            (expect, new),
        )
        self._send_request(GETX, block, out, True)

    # ------------------------------------------------------------------
    # Incoming message dispatch.
    # ------------------------------------------------------------------
    def handle(self, msg: Message) -> None:
        """Dispatch ``msg`` to its kind's handler.  The crossbar schedules
        those handlers directly; this is for injecting a message by hand."""
        self._handlers[msg.kind.idx](msg)

    def _unexpected(self, msg: Message) -> None:
        raise RuntimeError(f"L1 cannot handle {msg!r}")

    # -- Holder side: probes -------------------------------------------
    def _handle_forwarded_probe(self, msg: Message) -> None:
        block = msg.block
        line = self.cache.peek(block)
        if line is None or line.state not in ("E", "M"):
            # Stale ownership (gang invalidation, silent eviction, or a
            # dropped grant raced with this probe): drop any stale shared
            # copy and let the directory heal from memory.
            self.cache.invalidate(block)
            self._unblock(msg, "not_present")
            return
        tx = self._tx()
        exclusive = msg.kind is FWD_GETX
        conflict = tx is not None and (
            tx.conflicts_with_read(block) if exclusive else tx.conflicts_with_write(block)
        )
        if conflict:
            self._resolve_conflict(tx, msg)
            return
        # Plain MESI service.
        data = self._memory.block_value(block)
        if exclusive:
            self.cache.invalidate(block)
            self._respond_data(msg, DATA_E, data)
            self._unblock(msg, "xfer")
        else:
            line.state = "S"
            self._respond_data(msg, DATA, data)
            self._unblock(msg, "downgrade")

    def _handle_inv(self, msg: Message) -> None:
        block = msg.block
        tx = self._tx()
        conflict = tx is not None and tx.conflicts_with_read(block)
        if conflict:
            self._resolve_conflict(tx, msg, True)
            return
        self.cache.invalidate(block)
        self._ack_inv(msg, "invalidated")

    def _resolve_conflict(
        self, tx: TxState, msg: Message, via_inv: bool = False
    ) -> None:
        """Apply the conflict policy as the holder of ``msg.block``."""
        pic_before = tx.pic.value
        outcome = self._policy.resolve(tx, msg, self._inflight_write)
        if outcome.resolution is RESOLUTION_FORWARD_SPEC:
            tx.mark_forwarded()
            self._stats.spec_forwards += 1
            if self._probe._subscribers and tx.pic.value != pic_before:
                self._probe.emit(
                    PicUpdate(
                        cycle=self._engine.now, core=self.core_id,
                        value=tx.pic.value, source="forward",
                    )
                )
            self._send(
                self._Message(
                    SPEC_RESP, self.core_id, msg.requester, msg.block,
                    msg.epoch, msg.req_id, tx.store.block_value(msg.block),
                    None, False, None, outcome.message_pic, outcome.from_power,
                )
            )
            if via_inv:
                self._ack_inv(msg, "refused")
            else:
                self._cancel(msg)
            return
        if outcome.resolution is RESOLUTION_NACK:
            tx.mark_conflicted()
            self._send(
                self._Message(
                    NACK, self.core_id, msg.requester, msg.block, msg.epoch,
                    msg.req_id,
                )
            )
            if via_inv:
                self._ack_inv(msg, "refused")
            else:
                self._cancel(msg)
            return
        # Requester-wins: the holder's transaction dies.
        tx.mark_conflicted()
        reason = outcome.abort_reason
        if msg.block == self._lock_block:
            reason = LOCK
        elif msg.power and reason is CONFLICT:
            reason = POWER
        elif (
            reason is CONFLICT
            and msg.non_transactional
            and self._orecs is not None
            and self._orecs.in_slowpath(msg.requester)
        ):
            # The requester is a hybrid software slow path (reading a
            # block it is about to own, or publishing its redo log): the
            # same cause as a failed orec check, so classify it alike.
            reason = HYBRID
        self.core.abort_tx(reason, msg.requester, msg.block)
        # Gang invalidation dropped the SM lines, but the probed block may
        # be cached *non-speculatively* (e.g. the fallback lock block, or a
        # block owned before the transaction began).  The directory will
        # hand it to the requester from memory, so our copy must go too.
        self.cache.invalidate(msg.block)
        if via_inv:
            self._ack_inv(msg, "invalidated")
        else:
            # The directory supplies non-speculative data from memory.
            self._unblock(msg, "aborted")

    def _respond_data(self, probe: Message, kind: MessageKind, data) -> None:
        self._send(
            self._Message(
                kind, self.core_id, probe.requester, probe.block, probe.epoch,
                probe.req_id, data,
            )
        )

    def _unblock(self, probe: Message, action: str) -> None:
        self._send(
            self._Message(
                UNBLOCK, self.core_id, DIRECTORY, probe.block, probe.epoch,
                probe.req_id, None, probe.requester, probe.exclusive, action,
            )
        )

    def _cancel(self, probe: Message) -> None:
        self._send(
            self._Message(
                CANCEL, self.core_id, DIRECTORY, probe.block, probe.epoch,
                probe.req_id, None, probe.requester,
            )
        )

    def _ack_inv(self, probe: Message, action: str) -> None:
        self._send(
            self._Message(
                ACK, self.core_id, DIRECTORY, probe.block, probe.epoch,
                probe.req_id, None, probe.requester, False, action,
            )
        )

    # -- Requester side: responses --------------------------------------
    def _handle_response(self, msg: Message) -> None:
        if msg.src == DIRECTORY and msg.kind in (DATA, DATA_E):
            # Directory-sourced grants keep the block busy until this
            # acknowledgement — sent unconditionally, even for responses
            # addressed to a rolled-back attempt.
            self._send(
                self._Message(
                    UNBLOCK, self.core_id, DIRECTORY, msg.block, 0, 0, None,
                    None, False, "recv",
                )
            )
        out = self._outstanding.pop(msg.req_id, None)
        if out is None:
            return  # duplicate response (e.g. two refusing sharers)
        if out.transactional:
            tx = self._tx()
            if tx is None or tx.epoch != out.epoch:
                # Response to a rolled-back attempt.  The sender may have
                # recorded us as owner/sharer, but we will not install the
                # line — drop any older cached copy too, so no read can hit
                # a line the directory no longer associates with us (the
                # next probe heals the directory via 'not_present').
                if msg.kind in (DATA, DATA_E):
                    self.cache.invalidate(msg.block)
                if (
                    msg.kind is DATA_E
                    and tx is not None
                    and (tx.reads(msg.block) or tx.writes(msg.block))
                ):
                    # The stale exclusive grant erased our sharer record at
                    # the directory, so invalidations for this block will
                    # no longer reach us — yet the *current* attempt has
                    # already read it.  Its isolation can no longer be
                    # policed; it must roll back.  (A directory race, not
                    # another core's action: no ``src`` to attribute.)
                    self.core.abort_tx(CONFLICT, None, msg.block)
                return
            if out.is_validation:
                self._complete_validation(tx, out, msg)
            else:
                self._complete_tx_request(tx, out, msg)
        else:
            self._complete_nontx_request(out, msg)

    def _complete_tx_request(
        self, tx: TxState, out: _Outstanding, msg: Message
    ) -> None:
        if msg.kind is NACK:
            # Requester-stall: retry the access later (Power/LEVC holders).
            self._engine.schedule(
                self._htm.nack_retry_delay, self._retry_tx_request, tx.epoch, out
            )
            return
        if msg.kind is SPEC_RESP:
            self._consume_spec_resp(tx, out, msg)
            return
        # Ordinary data response.
        state = "E" if msg.kind is DATA_E else "S"
        if out.exclusive:
            state = "M"
        if not self._install(out.block, state, out.exclusive):
            return  # capacity abort killed the attempt
        self._complete_tx_access(tx, out)

    def _retry_tx_request(self, epoch: int, out: _Outstanding) -> None:
        tx = self._tx()
        if tx is None or tx.epoch != epoch:
            return
        kind = GETX if out.exclusive else GETS
        self._send_request(kind, out.block, out)

    def _consume_spec_resp(
        self, tx: TxState, out: _Outstanding, msg: Message
    ) -> None:
        """Accept speculative data: VSB copy, cache insert into the write
        set, PiC adoption (Sections III-A and IV-A)."""
        assert msg.data is not None
        if not tx.vsb.insert(out.block, msg.data):
            # VSB full (a race slipped past the can_consume advertisement):
            # we cannot use the hint; retry the plain request later.
            self._engine.schedule(
                self._htm.nack_retry_delay, self._retry_tx_request, tx.epoch, out
            )
            return
        occupancy = tx.vsb.occupancy()
        if occupancy > self._stats.vsb_high_water:
            self._stats.vsb_high_water = occupancy
        tx.store.install_received_block(out.block, msg.data)
        try:
            tx.track_write(out.block)
        except FootprintOverflow:
            self._abort_capacity(tx, out.block)
            return
        tx.mark_consumed()
        pic_before = tx.pic.value
        tx.pic.adopt_from_spec_resp(msg.pic)
        if self._probe._subscribers:
            self._probe.emit(
                VsbInsert(
                    cycle=self._engine.now, core=self.core_id,
                    block=out.block, occupancy=occupancy,
                )
            )
            if tx.pic.value != pic_before:
                self._probe.emit(
                    PicUpdate(
                        cycle=self._engine.now, core=self.core_id,
                        value=tx.pic.value, source="adopt",
                    )
                )
        if not self._install(out.block, "M", True, True):
            return  # capacity abort
        self.core.validation.arm(tx)
        self._complete_tx_access(tx, out)

    def _complete_tx_access(self, tx: TxState, out: _Outstanding) -> None:
        """Hand a load its word, or complete a store with ``None``."""
        assert out.on_value is not None
        if out.exclusive:
            out.on_value(out.epoch, None)
        else:
            out.on_value(out.epoch, tx.store.read_word(out.addr))

    def _complete_validation(
        self, tx: TxState, out: _Outstanding, msg: Message
    ) -> None:
        if self._orecs is not None and self._check_orec(out.block):
            return  # a slow path took the block since it was consumed
        if msg.kind is DATA_E:
            # We are now the genuine owner of the block.
            line = self.cache.peek(out.block)
            if line is not None:
                line.state = "M"
                line.spec_received = False
            else:
                # The line must still be cached (it is SM write-set data);
                # a missing line means the attempt already died.
                return
        assert out.on_message is not None
        out.on_message(out.epoch, msg)

    def _complete_nontx_request(self, out: _Outstanding, msg: Message) -> None:
        if msg.kind is NACK:
            self._engine.schedule(
                self._htm.nack_retry_delay, self._retry_nontx_request, out
            )
            return
        if msg.kind is SPEC_RESP:  # pragma: no cover - forbidden
            raise RuntimeError("speculative response to a non-transactional request")
        if out.cas is not None:
            expect, new = out.cas
            result = self._memory.read_word(out.addr)
            if result == expect:
                self._memory.write_word(out.addr, new)
            self._install(out.block, "M")
        elif out.write_value is not None:
            self._memory.write_word(out.addr, out.write_value)
            self._install(out.block, "M")
            result = None
        else:
            result = self._memory.read_word(out.addr)
            self._install(out.block, "E" if msg.kind is DATA_E else "S")
        assert out.on_value is not None
        out.on_value(result)

    def _retry_nontx_request(self, out: _Outstanding) -> None:
        kind = GETX if out.exclusive else GETS
        self._send_request(kind, out.block, out, True)
