"""Edge-case and protocol-conformance tests: invalid messages, op
datatypes, and miscellaneous glue."""

import pytest

from repro.mem.address import Geometry
from repro.mem.directory import Directory
from repro.mem.memory import MainMemory
from repro.net.messages import DIRECTORY, MessageKind, make_message
from repro.net.network import Crossbar
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.ops import Abort, AtomicCAS, Read, ThreadOp, Txn, TxOp, Work, Write


class TestOps:
    def test_ops_are_slotted(self):
        # Ops are compact __slots__ records (no per-instance __dict__) and
        # immutable by convention: nothing may hang new state off them.
        op = Read(addr=8)
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.bogus = 1

    def test_txn_defaults(self):
        def body():
            yield Work(1)

        txn = Txn(body)
        assert txn.args == ()
        assert txn.label == ""

    def test_op_unions(self):
        assert isinstance(Read(0), TxOp)
        assert isinstance(Write(0, 1), TxOp)
        assert isinstance(Abort(), TxOp)
        assert not isinstance(AtomicCAS(0, 0, 1), TxOp)
        assert isinstance(AtomicCAS(0, 0, 1), ThreadOp)
        assert isinstance(Txn(lambda: None), ThreadOp)

    def test_abort_flags(self):
        assert not Abort().no_retry
        assert Abort(no_retry=True).no_retry


class TestDirectoryProtocolErrors:
    def _directory(self):
        engine = Engine()
        memory = MainMemory(Geometry())
        net = Crossbar(engine, SystemConfig(num_cores=2))
        return Directory(engine, SystemConfig(num_cores=2), memory, net)

    def test_rejects_cache_bound_messages(self):
        d = self._directory()
        with pytest.raises(RuntimeError, match="cannot handle"):
            d.handle(
                make_message(kind=MessageKind.DATA, src=0, dst=DIRECTORY, block=1)
            )

    def test_rejects_bad_unblock_action(self):
        d = self._directory()
        with pytest.raises(RuntimeError, match="unblock action"):
            d.handle(
                make_message(
                    kind=MessageKind.UNBLOCK,
                    src=0,
                    dst=DIRECTORY,
                    block=1,
                    action="bogus",
                )
            )


class TestL1ProtocolErrors:
    def test_rejects_directory_bound_messages(self):
        from repro.sim.simulator import Simulator
        from repro.workloads.scripted import ScriptedWorkload

        def t():
            yield Work(1)

        sim = Simulator(
            ScriptedWorkload([t]), config=SystemConfig(num_cores=2)
        )
        with pytest.raises(RuntimeError, match="cannot handle"):
            sim.l1s[0].handle(
                make_message(kind=MessageKind.GETS, src=1, dst=0, block=1)
            )


class TestSimulatorGuards:
    def test_workload_bigger_than_machine(self):
        from repro.sim.simulator import Simulator
        from repro.workloads.base import make_workload

        wl = make_workload("counter", threads=8, scale=0.1)
        with pytest.raises(ValueError, match="cores"):
            Simulator(wl, config=SystemConfig(num_cores=4))

    def test_timestamps_monotonic(self):
        from repro.sim.simulator import Simulator
        from repro.workloads.base import make_workload

        wl = make_workload("counter", threads=2, scale=0.1)
        sim = Simulator(wl)
        stamps = [sim.next_timestamp() for _ in range(5)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5


class TestMessageRepr:
    def test_repr_is_compact(self):
        msg = make_message(
            kind=MessageKind.SPEC_RESP,
            src=2,
            dst=5,
            block=0x40,
            power=True,
            epoch=3,
        )
        text = repr(msg)
        assert "SpecResp" in text and "2->5" in text and "e3" in text

    def test_validation_marker(self):
        msg = make_message(
            kind=MessageKind.GETX,
            src=0,
            dst=DIRECTORY,
            block=1,
            is_validation=True,
        )
        assert " V" in repr(msg)


class TestWorkloadBaseGuards:
    def test_register_requires_concrete_name(self):
        from repro.workloads.base import Workload, register

        class Anon(Workload):
            def setup(self, memory):
                pass

            def thread_body(self, tid):
                yield Work(1)

        with pytest.raises(ValueError, match="concrete name"):
            register(Anon)

    def test_duplicate_registration_rejected(self):
        from repro.workloads.base import register
        from repro.workloads.synth import CounterWorkload

        with pytest.raises(ValueError, match="duplicate"):
            register(CounterWorkload)

    def test_scaled_floor(self):
        from repro.workloads.base import make_workload

        wl = make_workload("counter", threads=2, scale=0.001)
        assert wl.scaled(100, floor=7) >= 7
