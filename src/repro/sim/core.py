"""Core driver: executes one workload thread against the simulated machine.

The driver advances the thread's generator coroutine op by op.  Plain ops
run non-transactionally; a :class:`~repro.sim.ops.Txn` marker enters the
transaction state machine:

1. *Eager lock subscription* — the fallback lock word is read
   transactionally at begin, so the acquiring store of a fallback-path
   thread aborts every running transaction (Section V-C).
2. The body generator is driven with transactional semantics; every abort
   (conflict, validation, cycle, capacity, lock) restarts it from scratch
   with a fresh epoch after a linear backoff.
3. After ``retries`` conflict-induced aborts the fallback engages: PowerTM
   systems request the (single) power token and re-execute with elevated
   priority; other systems — and power transactions that keep failing —
   serialize under the global lock and run the body non-speculatively.
4. Commit waits for the VSB to drain (Section III-A) and then publishes
   the write set atomically.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from ..core.validation import ValidationController
from ..htm.fallback import LOCK_FREE, LOCK_HELD
from ..htm.stats import ABORTED, CAPACITY, COMMITTED, EXPLICIT, AbortReason
from ..htm.txstate import TxState
from ..obs import events as obs
from .ops import Abort, AtomicCAS, Read, Txn, Work, Write

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import Simulator

#: Attempts a power transaction gets before it gives up the token and
#: serializes under the global lock (capacity aborts can be persistent).
POWER_MAX_ATTEMPTS = 4

#: Delay between polls while spinning on a held fallback lock.
LOCK_SPIN_DELAY = 60

#: Hybrid slow path: cycles charged for acquiring one ownership record
#: (the CAS on the orec word) — the per-access instrumentation cost of
#: running software transactions concurrently with hardware ones.
SLOWPATH_OREC_DELAY = 4


class Core:
    """One simulated core running one workload thread."""

    def __init__(self, core_id: int, sim: "Simulator"):
        self.core_id = core_id
        self.sim = sim
        self.engine = sim.engine
        self.htm = sim.htm
        self.policy = sim.policy
        self.stats = sim.stats
        self.l1 = sim.l1s[core_id]
        self.validation = ValidationController(self)

        self.tx: Optional[TxState] = None
        # Reusable TxState sub-objects (signature, write set, store, PiC,
        # VSB), harvested from the first attempt and recycled for every
        # later one — a retry allocates one TxState and one AttemptRecord
        # instead of seven objects.
        self._tx_machinery: Optional[tuple] = None
        self._epoch = 0
        self._thread: Optional[Generator] = None
        self.done = False

        # Per-Txn-instance state.
        self._txn: Optional[Txn] = None
        self._tgen: Optional[Generator] = None
        self._conflict_aborts = 0
        self._attempts = 0
        self._power = False
        self._power_attempts = 0
        # Spec hooks resolved once: whether this system's conflict policy
        # needs ideal begin timestamps, and whether its fallback path is
        # the power token or the global lock.
        self._uses_timestamps = self.htm.system.uses_timestamps
        self._powered = self.htm.system.powered
        #: Spec hook: give-up transactions enter the concurrent software
        #: slow path instead of serializing behind the global lock.
        self._hybrid = self.htm.system.fallback == "hybrid"
        self._block_of = sim.workload.space.geometry.block_of
        self._levc_timestamp: Optional[int] = None
        self._in_fallback = False
        # Hybrid slow-path state: ownership records held (acquisition
        # order) and the redo log of buffered writes (addr -> value).
        self._orecs_held: list = []
        self._redo: dict = {}
        # Redo-log items still to publish, newest first (``pop`` takes
        # the oldest).
        self._unpublished: list = []
        # The running Txn's return value, sent into its thread once the
        # commit completes: after the VSB drains, the fallback lock is
        # released or the slow path's redo log is published.
        self._tx_result: Any = None
        # Cycle at which the current attempt entered the commit fence
        # (waiting for the VSB to drain); feeds ``vsb_stall_cycles``.
        self._fence_since: Optional[int] = None
        # Cycle at which the current attempt started running user code
        # (None until the lock subscription succeeds) and at which the
        # fallback lock was acquired; feed the wasted-cycle gauges.
        self._attempt_begin: Optional[int] = None
        self._fallback_since: Optional[int] = None
        # Blocks written by earlier aborted attempts of the current Txn:
        # the hardware analogue is a store-address predictor.  Feeds the
        # Rrestrict/W "in-flight write" heuristic — a block this attempt
        # has read but a previous attempt wrote is about to be invalidated
        # by a local store, so forwarding it would hand out poison.
        self._write_history: set = set()

    # ------------------------------------------------------------------
    # Thread-level execution.
    # ------------------------------------------------------------------
    def start(self, thread: Generator) -> None:
        self._thread = thread
        self.engine.schedule(0, self._advance_thread, None)

    def _advance_thread(self, send_value: Any) -> None:
        assert self._thread is not None
        try:
            op = self._thread.send(send_value)
        except StopIteration:
            self.done = True
            self.sim.core_finished(self.core_id)
            return
        # Exact-type dispatch: the op protocol is a closed set of frozen
        # records, so ``is``-comparisons beat isinstance() on this hot path.
        cls = op.__class__
        if cls is Txn:
            self._start_txn(op)
        elif cls is Read:
            self.l1.nontx_read(op.addr, self._advance_thread)
        elif cls is Write:
            self.l1.nontx_write(op.addr, op.value, self._advance_thread)
        elif cls is AtomicCAS:
            self.l1.nontx_cas(op.addr, op.expect, op.new, self._advance_thread)
        elif cls is Work:
            self.engine.schedule(max(1, op.cycles), self._advance_thread, None)
        else:
            raise TypeError(f"thread yielded unsupported op {op!r}")

    # ------------------------------------------------------------------
    # Transaction lifecycle.
    # ------------------------------------------------------------------
    def _start_txn(self, txn: Txn) -> None:
        self._txn = txn
        self._conflict_aborts = 0
        self._attempts = 0
        self._power = False
        self._power_attempts = 0
        self._in_fallback = False
        self._write_history = set()
        # Chain-state allocation is spec-driven: only orderings that rank
        # transactions by age draw a timestamp (kept across retries).
        self._levc_timestamp = (
            self.sim.next_timestamp() if self._uses_timestamps else None
        )
        self._begin_attempt()

    def _begin_attempt(self) -> None:
        assert self._txn is not None
        self._epoch += 1
        self._attempts += 1
        self._attempt_begin = None
        self.tx = TxState(
            self.core_id,
            self._epoch,
            self.sim.memory,
            self.htm,
            self._power,
            self._levc_timestamp,
            self._tx_machinery,
        )
        if self._tx_machinery is None:
            self._tx_machinery = self.tx.machinery()
        # Eager lock subscription.
        self.l1.tx_read(self.tx, self.sim.lock.addr, self._after_subscribe)

    def _after_subscribe(self, epoch: int, lock_value: int) -> None:
        tx = self.tx
        if tx is None or not tx.active or tx.epoch != epoch:
            return
        if lock_value != LOCK_FREE:
            # Lock held: quietly roll back and spin until released.
            self._quiet_rollback()
            self.engine.schedule(LOCK_SPIN_DELAY, self._wait_for_lock_free)
            return
        assert self._txn is not None
        self.stats.tx_attempts += 1
        self._attempt_begin = self.engine.now
        probe = self.sim.probe
        if probe._subscribers:
            probe.emit(
                obs.TxBegin(
                    cycle=self.engine.now, core=self.core_id,
                    epoch=epoch, power=self._power,
                )
            )
        self._tgen = self._txn.body(*self._txn.args)
        self._advance_tx(epoch, None)

    def _quiet_rollback(self) -> None:
        """Roll back an attempt that never ran user code (lock was held)."""
        tx = self.tx
        assert tx is not None
        tx.begin_abort(EXPLICIT)
        self.l1.cache.gang_invalidate_speculative()
        tx.finish_abort()
        self.validation.cancel()
        self.tx = None
        self._tgen = None

    def _wait_for_lock_free(self) -> None:
        self.l1.nontx_read(self.sim.lock.addr, self._lock_poll_result)

    def _lock_poll_result(self, value: int) -> None:
        if value == LOCK_FREE:
            self._begin_attempt()
        else:
            self.engine.schedule(LOCK_SPIN_DELAY, self._wait_for_lock_free)

    def _advance_tx(self, epoch: int, send_value: Any) -> None:
        tx = self.tx
        if tx is None or not tx.active or tx.epoch != epoch:
            return
        assert self._tgen is not None
        try:
            op = self._tgen.send(send_value)
        except StopIteration as stop:
            self._try_commit(stop.value)
            return
        cls = op.__class__
        if cls is Read:
            self.l1.tx_read(tx, op.addr, self._advance_tx)
        elif cls is Write:
            self.l1.tx_write(tx, op.addr, op.value, self._advance_tx)
        elif cls is Work:
            self.engine.schedule(
                max(1, op.cycles), self._advance_tx, epoch, None
            )
        elif cls is Abort:
            self._explicit_abort(op)
        else:
            raise TypeError(f"transaction yielded unsupported op {op!r}")

    def _explicit_abort(self, op: Abort) -> None:
        if op.no_retry:
            self._conflict_aborts = self.htm.retries + 1
        self.abort_tx(EXPLICIT)

    # ------------------------------------------------------------------
    # Commit.
    # ------------------------------------------------------------------
    def _try_commit(self, result: Any) -> None:
        tx = self.tx
        assert tx is not None
        self._tx_result = result
        if tx.vsb.empty:
            self._do_commit()
        else:
            # Section III-A: commit is fenced until every speculatively
            # received block has been validated.
            tx.commit_pending = True
            self._fence_since = self.engine.now

    def finish_pending_commit(self) -> None:
        tx = self.tx
        if tx is not None and tx.active and tx.commit_pending:
            tx.commit_pending = False
            self._settle_fence()
            self._do_commit()

    def _settle_fence(self) -> None:
        """Account cycles spent fenced on a non-empty VSB."""
        if self._fence_since is not None:
            self.stats.vsb_stall_cycles += self.engine.now - self._fence_since
            self._fence_since = None

    def _do_commit(self) -> None:
        tx = self.tx
        assert tx is not None and tx.active
        tx.record.outcome = COMMITTED
        self.stats.record_attempt(tx.record)
        probe = self.sim.probe
        if probe._subscribers:
            probe.emit(
                obs.Commit(
                    cycle=self.engine.now, core=self.core_id, epoch=tx.epoch,
                    power=self._power,
                    label=self._txn.label if self._txn is not None else "",
                )
            )
        tx.commit()
        self.l1.cache.clear_speculative_marks()
        self.validation.cancel()
        self.stats.tx_commits += 1
        if self._attempt_begin is not None:
            self.stats.committed_cycles += self.engine.now - self._attempt_begin
            self._attempt_begin = None
        if self._txn is not None:
            self.stats.label_commits[self._txn.label] += 1
        if self._power:
            self.stats.power_commits += 1
            self.sim.power.release(self.core_id)
            self._power = False
        self.tx = None
        self._tgen = None
        self._txn = None
        self.engine.schedule(1, self._advance_thread, self._tx_result)

    # ------------------------------------------------------------------
    # Abort (called by the L1 controller, validation controller, or self).
    # ------------------------------------------------------------------
    def abort_tx(
        self,
        reason: AbortReason,
        src: Optional[int] = None,
        block: Optional[int] = None,
    ) -> None:
        """Roll back the running attempt.

        ``src``/``block`` name the proximate cause when the abort site
        knows it (conflicting requester, mismatching producer, the block
        that overflowed); they ride the :class:`~repro.obs.events.Abort`
        event for the forensics layer and change nothing else.
        """
        tx = self.tx
        if tx is None or not tx.active:
            return
        probe = self.sim.probe
        if probe._subscribers:
            probe.emit(
                obs.Abort(
                    cycle=self.engine.now, core=self.core_id, epoch=tx.epoch,
                    reason=reason.value,
                    label=self._txn.label if self._txn is not None else "",
                    src=src, block=block, power=self._power,
                )
            )
        if self._attempt_begin is not None:
            self.stats.aborted_cycles += self.engine.now - self._attempt_begin
            self._attempt_begin = None
        if tx.commit_pending:
            # The attempt died inside the commit fence: the wait still
            # counts as VSB stall time.
            self._settle_fence()
        self._fence_since = None
        tx.begin_abort(reason)
        self._write_history |= tx.write_set
        tx.record.outcome = ABORTED
        tx.record.reason = reason
        self.stats.record_attempt(tx.record)
        self.stats.aborts[reason] += 1
        if self._txn is not None:
            self.stats.label_aborts[self._txn.label] += 1
        self.l1.cache.gang_invalidate_speculative()
        tx.finish_abort()
        self.validation.cancel()
        self.tx = None
        self._tgen = None
        if reason.conflict_induced or reason is EXPLICIT:
            # Conflict-induced aborts drive the paper's thresholds;
            # explicit (_xabort-style) aborts burn retry budget too, as in
            # RTM runtimes.
            self._conflict_aborts += 1
        if self._power:
            self._power_attempts += 1
            if self._power_attempts >= POWER_MAX_ATTEMPTS:
                self.sim.power.release(self.core_id)
                self._power = False
                self.engine.schedule(1, self._acquire_global_lock)
                return
            self.engine.schedule(self._backoff(), self._begin_attempt)
            return
        if reason is CAPACITY:
            # The RTM abort code would carry "retry not helpful": a
            # transaction that overflows the L1 will overflow it again, so
            # the runtime serializes immediately.
            self.engine.schedule(1, self._enter_fallback)
            return
        if self._conflict_aborts > self.htm.retries:
            self.engine.schedule(1, self._enter_fallback)
            return
        self.engine.schedule(self._backoff(), self._begin_attempt)

    def write_predicted(self, block: int) -> bool:
        """Whether a local store to ``block`` is expected shortly (it was
        in the write set of an earlier attempt of the same transaction)."""
        return block in self._write_history

    def _backoff(self) -> int:
        """Randomised exponential backoff (deterministic jitter).

        RTM runtimes back off exponentially between retries so colliding
        transactions de-synchronise instead of re-aborting each other in
        lockstep until the fallback threshold.
        """
        base = self.sim.config.retry_backoff_base
        window = base << min(self._attempts, 6)
        # xorshift-style hash of (core, attempt, epoch) as jitter source.
        x = (self.core_id * 2654435761 + self._attempts * 40503 + self._epoch) & 0xFFFFFFFF
        x ^= x >> 13
        x = (x * 0x5BD1E995) & 0xFFFFFFFF
        x ^= x >> 15
        return base + (x % max(1, window))

    # ------------------------------------------------------------------
    # Fallback paths.
    # ------------------------------------------------------------------
    def _enter_fallback(self) -> None:
        if self._powered:
            self.sim.power.request(self.core_id, self._power_granted)
        elif self._hybrid:
            self._begin_slowpath()
        else:
            self._acquire_global_lock()

    def _power_granted(self) -> None:
        self._power = True
        self._power_attempts = 0
        probe = self.sim.probe
        if probe._subscribers:
            probe.emit(
                obs.PowerElevate(cycle=self.engine.now, core=self.core_id)
            )
        self.engine.schedule(1, self._begin_attempt)

    def _acquire_global_lock(self) -> None:
        self.l1.nontx_cas(
            self.sim.lock.addr, LOCK_FREE, LOCK_HELD, self._lock_cas_result
        )

    def _lock_cas_result(self, observed: int) -> None:
        if observed == LOCK_FREE:
            self.sim.lock.acquisitions += 1
            self._fallback_since = self.engine.now
            probe = self.sim.probe
            if probe._subscribers:
                probe.emit(
                    obs.FallbackAcquire(
                        cycle=self.engine.now, core=self.core_id
                    )
                )
            self._run_fallback_body()
        else:
            self.sim.lock.failed_cas += 1
            self.engine.schedule(LOCK_SPIN_DELAY, self._acquire_global_lock)

    def _run_fallback_body(self) -> None:
        assert self._txn is not None
        self._in_fallback = True
        self._tgen = self._txn.body(*self._txn.args)
        self._advance_fallback(None)

    def _advance_fallback(self, send_value: Any) -> None:
        assert self._tgen is not None
        try:
            op = self._tgen.send(send_value)
        except StopIteration as stop:
            self._finish_fallback(stop.value)
            return
        cls = op.__class__
        if cls is Read:
            self.l1.nontx_read(op.addr, self._advance_fallback)
        elif cls is Write:
            self.l1.nontx_write(op.addr, op.value, self._advance_fallback)
        elif cls is Work:
            self.engine.schedule(max(1, op.cycles), self._advance_fallback, None)
        elif cls is Abort:
            # An explicit abort under the lock restarts the body (the lock
            # is still held, so this cannot livelock against other cores).
            self._tgen = self._txn.body(*self._txn.args)
            self.engine.schedule(1, self._advance_fallback, None)
        else:
            raise TypeError(f"fallback body yielded unsupported op {op!r}")

    def _finish_fallback(self, result: Any) -> None:
        self._in_fallback = False
        self.stats.tx_fallback_commits += 1
        if self._fallback_since is not None:
            self.stats.fallback_cycles += self.engine.now - self._fallback_since
            self._fallback_since = None
        probe = self.sim.probe
        if probe._subscribers:
            probe.emit(
                obs.FallbackCommit(
                    cycle=self.engine.now, core=self.core_id,
                    label=self._txn.label if self._txn is not None else "",
                )
            )
        if self._txn is not None:
            self.stats.label_commits[self._txn.label] += 1
        self._txn = None
        self._tgen = None
        self._tx_result = result
        # Release the global lock; the releasing store is an ordinary
        # non-transactional write.
        self.l1.nontx_write(self.sim.lock.addr, LOCK_FREE, self._lock_released)

    def _lock_released(self, _value: None) -> None:
        self.engine.schedule(1, self._advance_thread, self._tx_result)

    # ------------------------------------------------------------------
    # Hybrid software slow path (spec.fallback == "hybrid").
    #
    # The give-up transaction re-executes as instrumented software that
    # runs *concurrently* with hardware transactions: it acquires an
    # exclusive per-block ownership record at encounter time (reads and
    # writes alike), buffers its writes in a redo log, and publishes them
    # through ordinary non-transactional stores at commit — whose GETX
    # traffic aborts conflicting hardware readers via the normal
    # coherence path, while the ownership records (checked by hardware
    # transactions on every access) fence the window between first touch
    # and publication.  On an ownership conflict with another slow path
    # it releases everything and retries after backoff, so ownership
    # waits never form a cycle.
    # ------------------------------------------------------------------
    def _begin_slowpath(self) -> None:
        assert self._txn is not None
        self._in_fallback = True
        self._fallback_since = self.engine.now
        self.sim.orecs.enter(self.core_id)
        probe = self.sim.probe
        if probe._subscribers:
            # The span between FallbackAcquire and FallbackCommit brackets
            # the whole slow-path execution, internal restarts included —
            # mirroring the lock path, so the ledger's "fallback" bucket
            # and the fallback_cycles gauge stay in exact agreement.
            probe.emit(
                obs.FallbackAcquire(cycle=self.engine.now, core=self.core_id)
            )
        self._restart_slowpath()

    def _restart_slowpath(self) -> None:
        assert self._txn is not None
        self._redo = {}
        self._tgen = self._txn.body(*self._txn.args)
        self._advance_slowpath(None)

    def _advance_slowpath(self, send_value: Any) -> None:
        assert self._tgen is not None
        try:
            op = self._tgen.send(send_value)
        except StopIteration as stop:
            self._tx_result = stop.value
            self._unpublished = list(self._redo.items())
            self._unpublished.reverse()
            self._publish_slowpath(None)
            return
        cls = op.__class__
        if cls is Read:
            self._slowpath_read(op.addr)
        elif cls is Write:
            self._slowpath_write(op.addr, op.value)
        elif cls is Work:
            self.engine.schedule(max(1, op.cycles), self._advance_slowpath, None)
        elif cls is Abort:
            # An explicit abort restarts the software transaction; drop
            # every record first so other threads can make progress while
            # we back off (unlike the lock path, nothing is serialized).
            self._release_orecs()
            self._attempts += 1
            self.engine.schedule(self._backoff(), self._restart_slowpath)
        else:
            raise TypeError(f"slow-path body yielded unsupported op {op!r}")

    def _claim_orec(self, block: int) -> Optional[int]:
        """Acquire the ownership record for ``block``, returning the cycle
        cost of the acquisition (0 when already held), or ``None`` when
        another slow path owns it — in which case everything has been
        released and a restart is scheduled."""
        orecs = self.sim.orecs
        owner = orecs.owner(block)
        if owner is not None and owner != self.core_id:
            orecs.conflicts += 1
            self._release_orecs()
            self._attempts += 1
            self.engine.schedule(self._backoff(), self._restart_slowpath)
            return None
        if owner is None:
            orecs.acquire(block, self.core_id)
            self._orecs_held.append(block)
            return SLOWPATH_OREC_DELAY
        return 0

    def _slowpath_read(self, addr: int) -> None:
        cost = self._claim_orec(self._block_of(addr))
        if cost is None:
            return
        if addr in self._redo:
            # Read-own-write: the redo log overlays committed memory.
            self.engine.schedule(
                1 + cost, self._advance_slowpath, self._redo[addr]
            )
        elif cost:
            self.engine.schedule(
                cost, self.l1.nontx_read, addr, self._advance_slowpath
            )
        else:
            self.l1.nontx_read(addr, self._advance_slowpath)

    def _slowpath_write(self, addr: int, value: int) -> None:
        cost = self._claim_orec(self._block_of(addr))
        if cost is None:
            return
        self._redo[addr] = value
        self.engine.schedule(1 + cost, self._advance_slowpath, None)

    def _release_orecs(self) -> None:
        if self._orecs_held:
            self.sim.orecs.release_all(self.core_id, self._orecs_held)
            self._orecs_held = []
        self._redo = {}
        self._tgen = None

    def _publish_slowpath(self, _value: None) -> None:
        """Drain the redo log into committed memory, one non-transactional
        store at a time (each one's GETX aborts conflicting hardware
        transactions through the ordinary coherence path); each store's
        completion publishes the next.  Ownership records are held until
        the last store lands, so no hardware transaction can observe a
        half-published redo log."""
        if self._unpublished:
            addr, value = self._unpublished.pop()
            self.l1.nontx_write(addr, value, self._publish_slowpath)
            return
        self._finish_slowpath()

    def _finish_slowpath(self) -> None:
        self._release_orecs()
        self.sim.orecs.exit(self.core_id)
        self._in_fallback = False
        self.stats.tx_fallback_commits += 1
        if self._fallback_since is not None:
            self.stats.fallback_cycles += self.engine.now - self._fallback_since
            self._fallback_since = None
        probe = self.sim.probe
        if probe._subscribers:
            probe.emit(
                obs.FallbackCommit(
                    cycle=self.engine.now, core=self.core_id,
                    label=self._txn.label if self._txn is not None else "",
                )
            )
        if self._txn is not None:
            self.stats.label_commits[self._txn.label] += 1
        self._txn = None
        self.engine.schedule(1, self._advance_thread, self._tx_result)
