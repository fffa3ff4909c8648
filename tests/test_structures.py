"""Tests for the simulated-memory data structures.

Structure generator methods are exercised two ways: (a) *host-driven* — a
tiny interpreter applies their yielded ops directly to committed memory,
checking functional correctness in isolation; (b) inside single-threaded
simulations, checking they compose with the transaction machinery.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import AddressSpace
from repro.mem.memory import MainMemory
from repro.sim.ops import Read, Txn, Work, Write
from repro.systems import paper
from repro.workloads.structures import (
    NULL,
    NodePool,
    SimArray,
    SimBST,
    SimCounter,
    SimHashTable,
    SimLinkedList,
    SimQueue,
)


def interpret(memory: MainMemory, gen):
    """Drive a structure generator directly against committed memory."""
    try:
        op = next(gen)
        while True:
            if isinstance(op, Read):
                op = gen.send(memory.read_word(op.addr))
            elif isinstance(op, Write):
                memory.write_word(op.addr, op.value)
                op = gen.send(None)
            elif isinstance(op, Work):
                op = gen.send(None)
            else:  # pragma: no cover
                raise TypeError(op)
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def pool_env(memory):
    space = AddressSpace(memory.geometry)
    return memory, space


class TestSimArray:
    def test_init_and_addresses(self, pool_env):
        memory, space = pool_env
        arr = SimArray(space, 4)
        arr.init(memory, [10, 20, 30, 40])
        assert memory.read_word(arr.addr(2)) == 30

    def test_get_set(self, pool_env):
        memory, space = pool_env
        arr = SimArray(space, 4)
        interpret(memory, arr.set(1, 99))
        assert interpret(memory, arr.get(1)) == 99

    def test_bounds(self, pool_env):
        _, space = pool_env
        arr = SimArray(space, 4)
        with pytest.raises(IndexError):
            arr.addr(4)

    def test_padded_elements_in_distinct_blocks(self, pool_env):
        memory, space = pool_env
        arr = SimArray(space, 4, padded=True)
        g = memory.geometry
        blocks = {g.block_of(arr.addr(i)) for i in range(4)}
        assert len(blocks) == 4

    def test_unpadded_elements_share_blocks(self, pool_env):
        memory, space = pool_env
        arr = SimArray(space, 8)
        g = memory.geometry
        assert g.block_of(arr.addr(0)) == g.block_of(arr.addr(7))


class TestNodePool:
    def test_nodes_block_aligned(self, pool_env):
        _, space = pool_env
        pool = NodePool(space, 8, 3, threads=2)
        nodes = [pool.alloc(0) for _ in range(4)]
        assert all(n % 64 == 0 for n in nodes)
        assert len(set(nodes)) == 4

    def test_reserve_is_idempotent(self, pool_env):
        _, space = pool_env
        pool = NodePool(space, 8, 3, threads=2)
        a = pool.reserve(("op", 1))
        b = pool.reserve(("op", 1))
        c = pool.reserve(("op", 2))
        assert a == b and a != c

    def test_steals_when_local_list_empty(self, pool_env):
        _, space = pool_env
        pool = NodePool(space, 4, 2, threads=2)
        for _ in range(4):
            pool.alloc(0)  # drains both partitions via stealing
        with pytest.raises(MemoryError):
            pool.alloc(0)

    def test_free_recycles(self, pool_env):
        _, space = pool_env
        pool = NodePool(space, 2, 2, threads=2)
        n = pool.alloc(0)
        pool.alloc(0)
        pool.free(0, n)
        assert pool.alloc(0) == n

    def test_field_bounds(self, pool_env):
        _, space = pool_env
        pool = NodePool(space, 2, 3, threads=1)
        node = pool.alloc(0)
        assert pool.field(node, 2) == node + 16
        with pytest.raises(IndexError):
            pool.field(node, 3)


class TestSimLinkedList:
    def _make(self, pool_env, items):
        memory, space = pool_env
        pool = NodePool(space, len(items) + 4, 3, threads=1)
        lst = SimLinkedList(space, pool)
        lst.init(memory, items)
        return memory, lst

    def test_search_hit_and_miss(self, pool_env):
        memory, lst = self._make(pool_env, [(1, 10), (3, 30), (5, 50)])
        assert interpret(memory, lst.search(3)) != NULL
        assert interpret(memory, lst.search(4)) == NULL
        assert interpret(memory, lst.search(9)) == NULL

    def test_update_value(self, pool_env):
        memory, lst = self._make(pool_env, [(1, 10), (2, 20)])
        assert interpret(memory, lst.update_value(2, 99))
        node = interpret(memory, lst.search(2))
        assert memory.read_word(lst.pool.field(node, lst.VALUE)) == 99

    def test_add_to_value(self, pool_env):
        memory, lst = self._make(pool_env, [(1, 10)])
        assert interpret(memory, lst.add_to_value(1, 5))
        node = interpret(memory, lst.search(1))
        assert memory.read_word(lst.pool.field(node, lst.VALUE)) == 15

    def test_insert_sorted(self, pool_env):
        memory, lst = self._make(pool_env, [(1, 10), (5, 50)])
        new = lst.pool.alloc(0)
        assert interpret(memory, lst.insert(new, 3, 30))
        # Walk and check order.
        keys, node = [], memory.read_word(lst.head_addr)
        while node:
            keys.append(memory.read_word(lst.pool.field(node, lst.KEY)))
            node = memory.read_word(lst.pool.field(node, lst.NEXT))
        assert keys == [1, 3, 5]

    def test_insert_duplicate_rejected(self, pool_env):
        memory, lst = self._make(pool_env, [(1, 10)])
        new = lst.pool.alloc(0)
        assert not interpret(memory, lst.insert(new, 1, 99))


class TestSimQueue:
    def test_fifo(self, pool_env):
        memory, space = pool_env
        q = SimQueue(space, 8)
        q.init(memory, [1, 2, 3])
        assert interpret(memory, q.pop()) == 1
        assert interpret(memory, q.pop()) == 2
        assert interpret(memory, q.push(9))
        assert interpret(memory, q.pop()) == 3
        assert interpret(memory, q.pop()) == 9
        assert interpret(memory, q.pop()) is None

    def test_capacity_limit(self, pool_env):
        memory, space = pool_env
        q = SimQueue(space, 4)
        q.init(memory, [])
        assert interpret(memory, q.push(1))
        assert interpret(memory, q.push(2))
        assert interpret(memory, q.push(3))
        assert not interpret(memory, q.push(4))  # ring keeps one free slot

    def test_init_overflow_rejected(self, pool_env):
        memory, space = pool_env
        q = SimQueue(space, 3)
        with pytest.raises(ValueError):
            q.init(memory, [1, 2, 3])

    def test_final_size(self, pool_env):
        memory, space = pool_env
        q = SimQueue(space, 8)
        q.init(memory, [1, 2])
        interpret(memory, q.pop())
        assert q.final_size(memory) == 1


class TestSimHashTable:
    def _make(self, pool_env, buckets=8, capacity=16):
        memory, space = pool_env
        pool = NodePool(space, capacity, 3, threads=1)
        return memory, SimHashTable(space, buckets, pool)

    def test_insert_lookup(self, pool_env):
        memory, table = self._make(pool_env)
        node = table.pool.alloc(0)
        assert interpret(memory, table.insert(node, 42, 420))
        assert interpret(memory, table.lookup(42)) == 420
        assert interpret(memory, table.lookup(43)) is None

    def test_duplicate_insert(self, pool_env):
        memory, table = self._make(pool_env)
        n1, n2 = table.pool.alloc(0), table.pool.alloc(0)
        assert interpret(memory, table.insert(n1, 42, 1))
        assert not interpret(memory, table.insert(n2, 42, 2))
        assert interpret(memory, table.lookup(42)) == 1

    def test_update_add_upserts(self, pool_env):
        memory, table = self._make(pool_env)
        n1, n2 = table.pool.alloc(0), table.pool.alloc(0)
        assert interpret(memory, table.update_add(n1, 7, 3))
        assert not interpret(memory, table.update_add(n2, 7, 4))
        assert interpret(memory, table.lookup(7)) == 7

    def test_host_items(self, pool_env):
        memory, table = self._make(pool_env)
        table.init(memory, [(1, 10), (2, 20), (9, 90)])
        assert table.host_items(memory) == {1: 10, 2: 20, 9: 90}

    @given(st.sets(st.integers(1, 10_000), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_chaining_handles_collisions(self, keys):
        memory = MainMemory(AddressSpace().geometry)
        space = AddressSpace()
        pool = NodePool(space, len(keys) + 2, 3, threads=1)
        table = SimHashTable(space, 4, pool)  # tiny: heavy collisions
        table.init(memory, [(k, k * 2) for k in keys])
        for k in keys:
            assert interpret(memory, table.lookup(k)) == k * 2


class TestSimBST:
    def _make(self, pool_env, items=()):
        memory, space = pool_env
        pool = NodePool(space, 64, 4, threads=1)
        tree = SimBST(space, pool)
        tree.init(memory, items)
        return memory, tree

    def test_insert_contains(self, pool_env):
        memory, tree = self._make(pool_env)
        for key in (5, 3, 8, 1):
            node = tree.pool.alloc(0)
            assert interpret(memory, tree.insert(node, key, key * 2))
        for key in (5, 3, 8, 1):
            assert interpret(memory, tree.contains(key))
        assert not interpret(memory, tree.contains(4))

    def test_duplicate_insert(self, pool_env):
        memory, tree = self._make(pool_env, [(5, 50)])
        node = tree.pool.alloc(0)
        assert not interpret(memory, tree.insert(node, 5, 99))

    def test_host_keys_inorder(self, pool_env):
        memory, tree = self._make(pool_env, [(5, 0), (2, 0), (8, 0), (1, 0)])
        assert tree.host_keys(memory) == [1, 2, 5, 8]

    def test_rebalance_preserves_bst_order(self, pool_env):
        memory, tree = self._make(
            pool_env, [(i, 0) for i in (10, 5, 15, 3, 7, 12, 20, 1)]
        )
        interpret(memory, tree.rebalance_path(1))
        keys = tree.host_keys(memory)
        assert keys == sorted(keys)
        assert len(keys) == 8

    @given(st.sets(st.integers(0, 1000), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_rebalance_property(self, keys):
        memory = MainMemory(AddressSpace().geometry)
        space = AddressSpace()
        pool = NodePool(space, len(keys) + 2, 4, threads=1)
        tree = SimBST(space, pool)
        tree.init(memory, [(k, 0) for k in keys])
        for probe in list(keys)[:5]:
            interpret(memory, tree.rebalance_path(probe))
        assert tree.host_keys(memory) == sorted(keys)


class TestSimCounter:
    def test_add_and_get(self, pool_env):
        memory, space = pool_env
        ctr = SimCounter(space)
        ctr.init(memory, 10)
        assert interpret(memory, ctr.add(5)) == 15
        assert interpret(memory, ctr.get()) == 15
        assert ctr.read_host(memory) == 15


class TestStructuresUnderSimulation:
    def test_list_updates_transactionally(self):
        space = AddressSpace()
        pool = NodePool(space, 12, 3, threads=2)
        lst = SimLinkedList(space, pool)
        items = [(k, 0) for k in range(1, 9)]

        def thread(keys):
            def t():
                for k in keys:
                    def body(key=k):
                        ok = yield from lst.add_to_value(key, 1)
                        return ok

                    yield Txn(body, ())

            return t

        from repro.workloads.scripted import ScriptedWorkload
        from repro.sim.simulator import Simulator
        from repro.sim.config import SystemConfig, table2_config

        wl = ScriptedWorkload([thread([1, 2, 3, 4]), thread([3, 4, 5, 6])])
        # Build the list inside the scripted workload's own memory image.
        original_setup = wl.setup

        def setup(memory):
            original_setup(memory)
            lst.init(memory, items)

        wl.setup = setup
        sim = Simulator(
            wl,
            htm=table2_config(paper.CHATS),
            config=SystemConfig(num_cores=2),
        )
        sim.run(max_events=2_000_000)
        expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 1, 6: 1, 7: 0, 8: 0}
        for k, bumps in expected.items():
            node = interpret(sim.memory, lst.search(k))
            value = sim.memory.read_word(lst.pool.field(node, lst.VALUE))
            assert value == bumps, f"key {k}"
