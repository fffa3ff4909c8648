"""Shared data structures over simulated memory.

STAMP's transactional behaviour comes from the data structures its
benchmarks traverse — linked lists, FIFO queues, hash tables, binary
trees.  These are re-implemented here on top of the simulated word-
addressed memory: every field access is a yielded
:class:`~repro.sim.ops.Read`/:class:`~repro.sim.ops.Write`, so cache
blocks, conflicts, and forwarding behave as they would for the original
pointer-chasing code.

Each structure has two faces:

* ``init(memory)`` — direct seeding of committed memory (simulation-free
  setup, the equivalent of the benchmark's serial initialisation phase);
* generator methods (``search``, ``insert``, ``pop`` ...) used inside
  transaction bodies with ``yield from``, returning their result via the
  generator's ``return`` value.

Pointers are simulated byte addresses; the null pointer is 0.
"""

from __future__ import annotations

from typing import Generator, List

from ..mem.address import AddressSpace
from ..mem.memory import MainMemory
from ..sim.ops import Read, Write

NULL = 0


class SimArray:
    """A fixed-size array of words.

    ``padded=True`` places every element in its own cache block — use it
    for hot per-entity words (per-thread counters, per-chain tails) that
    the original C code allocates as separate heap objects and that must
    therefore not false-share.
    """

    def __init__(
        self,
        space: AddressSpace,
        length: int,
        *,
        name: str = "array",
        padded: bool = False,
    ):
        if length < 1:
            raise ValueError("array needs at least one element")
        self.space = space
        self.length = length
        self.name = name
        self.padded = padded
        if padded:
            self._stride = space.geometry.block_bytes // space.geometry.word_bytes
            self.base = space.alloc_words(length * self._stride)
        else:
            self._stride = 1
            self.base = space.alloc_words(length)

    def addr(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name}[{index}] out of range")
        return self.space.word_addr(self.base, index * self._stride)

    def init(self, memory: MainMemory, values) -> None:
        for i, v in enumerate(values):
            memory.write_word(self.addr(i), v)

    def get(self, index: int) -> Generator:
        value = yield Read(self.addr(index))
        return value

    def set(self, index: int, value: int) -> Generator:
        yield Write(self.addr(index), value)


class NodePool:
    """Pre-allocated node records with per-thread free lists.

    STAMP uses per-thread memory allocators, so node allocation itself is
    not a contention point; we reproduce that with per-thread bump
    pointers over a shared arena.  ``words_per_node`` fields per node,
    block-aligned so distinct nodes never false-share.
    """

    def __init__(
        self,
        space: AddressSpace,
        capacity: int,
        words_per_node: int,
        threads: int,
        *,
        name: str = "pool",
    ):
        if capacity < threads:
            raise ValueError("pool smaller than thread count")
        self.space = space
        self.words_per_node = words_per_node
        self.name = name
        self._nodes = [
            space.alloc_words(words_per_node) for _ in range(capacity)
        ]
        # Round-robin partition among threads.
        self._free: List[List[int]] = [[] for _ in range(threads)]
        for i, node in enumerate(self._nodes):
            self._free[i % threads].append(node)
        #: Nodes handed out to logical operations via :meth:`reserve`.
        self._reserved: dict = {}

    def alloc_init(self) -> int:
        """Take a node during serial setup (consumes from thread 0's list
        last so runtime allocation stays balanced)."""
        for free in self._free:
            if free:
                return free.pop()
        raise MemoryError(f"{self.name}: node pool exhausted during init")

    def alloc(self, tid: int) -> int:
        """Runtime allocation by thread ``tid`` (host-side bookkeeping; the
        node's *contents* are still written through simulated ops)."""
        free = self._free[tid]
        if free:
            return free.pop()
        # Steal from the richest neighbour before giving up.
        donor = max(self._free, key=len)
        if donor:
            return donor.pop()
        raise MemoryError(f"{self.name}: node pool exhausted")

    def reserve(self, key) -> int:
        """Deterministic allocation for one *logical* operation.

        Transaction bodies re-execute on abort, so a body must not call
        :meth:`alloc` directly — every retry would leak a node.  Instead
        the workload reserves the node once per logical insert (keyed by
        e.g. ``(tid, iteration)``) and passes the address into the body;
        retries rewrite the same node's fields transactionally.
        """
        node = self._reserved.get(key)
        if node is None:
            node = self.alloc(0)
            self._reserved[key] = node
        return node

    def free(self, tid: int, node: int) -> None:
        self._free[tid].append(node)

    def field(self, node: int, index: int) -> int:
        if not 0 <= index < self.words_per_node:
            raise IndexError(f"{self.name}: field {index} out of range")
        return self.space.word_addr(node, index)


class SimLinkedList:
    """Sorted singly linked list of (key, value) nodes.

    Node layout: [key, value, next].  Used by the *llb* microbenchmark and
    genome's segment chains.
    """

    KEY, VALUE, NEXT = 0, 1, 2

    def __init__(
        self,
        space: AddressSpace,
        pool: NodePool,
        *,
        name: str = "list",
    ):
        self.space = space
        self.pool = pool
        self.name = name
        # Head pointer in its own block.
        self.head_addr = space.alloc_words(1)

    # -- serial init ----------------------------------------------------
    def init(self, memory: MainMemory, items) -> None:
        """Build the list (sorted by key) directly in committed memory."""
        items = sorted(items)
        prev_addr = self.head_addr
        for key, value in items:
            node = self.pool.alloc_init()
            memory.write_word(self.pool.field(node, self.KEY), key)
            memory.write_word(self.pool.field(node, self.VALUE), value)
            memory.write_word(self.pool.field(node, self.NEXT), NULL)
            memory.write_word(prev_addr, node)
            prev_addr = self.pool.field(node, self.NEXT)

    # -- transactional operations ----------------------------------------
    def search(self, key: int) -> Generator:
        """Find the node with ``key``; returns its address or NULL."""
        node = yield Read(self.head_addr)
        while node != NULL:
            k = yield Read(self.pool.field(node, self.KEY))
            if k == key:
                return node
            if k > key:
                return NULL
            node = yield Read(self.pool.field(node, self.NEXT))
        return NULL

    def update_value(self, key: int, value: int) -> Generator:
        """Search then modify — the llb pattern.  Returns True on hit."""
        node = yield from self.search(key)
        if node == NULL:
            return False
        yield Write(self.pool.field(node, self.VALUE), value)
        return True

    def add_to_value(self, key: int, delta: int) -> Generator:
        """Read-modify-write of a node's value."""
        node = yield from self.search(key)
        if node == NULL:
            return False
        old = yield Read(self.pool.field(node, self.VALUE))
        yield Write(self.pool.field(node, self.VALUE), old + delta)
        return True

    def insert(self, new: int, key: int, value: int) -> Generator:
        """Sorted insert of the pre-reserved node ``new`` (see
        :meth:`NodePool.reserve`); returns False when the key exists."""
        prev_addr = self.head_addr
        node = yield Read(self.head_addr)
        while node != NULL:
            k = yield Read(self.pool.field(node, self.KEY))
            if k == key:
                return False
            if k > key:
                break
            prev_addr = self.pool.field(node, self.NEXT)
            node = yield Read(prev_addr)
        yield Write(self.pool.field(new, self.KEY), key)
        yield Write(self.pool.field(new, self.VALUE), value)
        yield Write(self.pool.field(new, self.NEXT), node)
        yield Write(prev_addr, new)
        return True


class SimQueue:
    """Bounded FIFO ring buffer.

    Layout: head and tail indices share one block (the intruder *capture*
    contention point: a time gap between reading and bumping the pointer),
    slots live in their own array.
    """

    def __init__(self, space: AddressSpace, capacity: int, *, name: str = "queue"):
        if capacity < 2:
            raise ValueError("queue capacity must be at least 2")
        self.space = space
        self.capacity = capacity
        self.name = name
        header = space.alloc_words(2)
        self.head_addr = space.word_addr(header, 0)
        self.tail_addr = space.word_addr(header, 1)
        self.slots = SimArray(space, capacity, name=f"{name}.slots")

    def init(self, memory: MainMemory, items) -> None:
        items = list(items)
        if len(items) >= self.capacity:
            raise ValueError(f"{self.name}: {len(items)} items overflow the ring")
        for i, item in enumerate(items):
            memory.write_word(self.slots.addr(i), item)
        memory.write_word(self.head_addr, 0)
        memory.write_word(self.tail_addr, len(items))

    def pop(self) -> Generator:
        """Dequeue; returns the item or None when empty."""
        head = yield Read(self.head_addr)
        tail = yield Read(self.tail_addr)
        if head == tail:
            return None
        item = yield Read(self.slots.addr(head % self.capacity))
        yield Write(self.head_addr, head + 1)
        return item

    def push(self, item: int) -> Generator:
        """Enqueue; returns False when full."""
        head = yield Read(self.head_addr)
        tail = yield Read(self.tail_addr)
        if tail - head >= self.capacity - 1:
            return False
        yield Write(self.slots.addr(tail % self.capacity), item)
        yield Write(self.tail_addr, tail + 1)
        return True

    def final_size(self, memory: MainMemory) -> int:
        return memory.read_word(self.tail_addr) - memory.read_word(self.head_addr)


class SimHashTable:
    """Chained hash table of (key, value) pairs.

    Node layout: [key, value, next].  Bucket heads are one word each, so
    with 8 buckets per 64-byte block nearby buckets false-share — as they
    would in the C original.
    """

    KEY, VALUE, NEXT = 0, 1, 2

    def __init__(
        self,
        space: AddressSpace,
        buckets: int,
        pool: NodePool,
        *,
        name: str = "hash",
    ):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.space = space
        self.buckets = buckets
        self.pool = pool
        self.name = name
        self.heads = SimArray(space, buckets, name=f"{name}.heads")

    def _bucket(self, key: int) -> int:
        # Deterministic integer hash (xorshift-multiply).
        h = key & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 33
        h = (h * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
        return h % self.buckets

    def init(self, memory: MainMemory, items) -> None:
        for key, value in items:
            b = self._bucket(key)
            node = self.pool.alloc_init()
            memory.write_word(self.pool.field(node, self.KEY), key)
            memory.write_word(self.pool.field(node, self.VALUE), value)
            memory.write_word(
                self.pool.field(node, self.NEXT),
                memory.read_word(self.heads.addr(b)),
            )
            memory.write_word(self.heads.addr(b), node)

    def lookup(self, key: int) -> Generator:
        """Returns the value for ``key`` or None."""
        node = yield Read(self.heads.addr(self._bucket(key)))
        while node != NULL:
            k = yield Read(self.pool.field(node, self.KEY))
            if k == key:
                value = yield Read(self.pool.field(node, self.VALUE))
                return value
            node = yield Read(self.pool.field(node, self.NEXT))
        return None

    def insert(self, new: int, key: int, value: int) -> Generator:
        """Insert if absent, linking the pre-reserved node ``new``;
        returns True when the node was linked."""
        head_addr = self.heads.addr(self._bucket(key))
        node = yield Read(head_addr)
        cursor = node
        while cursor != NULL:
            k = yield Read(self.pool.field(cursor, self.KEY))
            if k == key:
                return False
            cursor = yield Read(self.pool.field(cursor, self.NEXT))
        yield Write(self.pool.field(new, self.KEY), key)
        yield Write(self.pool.field(new, self.VALUE), value)
        yield Write(self.pool.field(new, self.NEXT), node)
        yield Write(head_addr, new)
        return True

    def update_add(self, new: int, key: int, delta: int) -> Generator:
        """Upsert: add ``delta`` to the key's value (insert 0+delta).
        ``new`` is the pre-reserved node used if the key is absent."""
        head_addr = self.heads.addr(self._bucket(key))
        node = yield Read(head_addr)
        cursor = node
        while cursor != NULL:
            k = yield Read(self.pool.field(cursor, self.KEY))
            if k == key:
                old = yield Read(self.pool.field(cursor, self.VALUE))
                yield Write(self.pool.field(cursor, self.VALUE), old + delta)
                return False
            cursor = yield Read(self.pool.field(cursor, self.NEXT))
        yield Write(self.pool.field(new, self.KEY), key)
        yield Write(self.pool.field(new, self.VALUE), delta)
        yield Write(self.pool.field(new, self.NEXT), node)
        yield Write(head_addr, new)
        return True

    def host_items(self, memory: MainMemory):
        """Read the whole table directly from committed memory (verify)."""
        out = {}
        for b in range(self.buckets):
            node = memory.read_word(self.heads.addr(b))
            while node != NULL:
                k = memory.read_word(self.pool.field(node, self.KEY))
                v = memory.read_word(self.pool.field(node, self.VALUE))
                out[k] = v
                node = memory.read_word(self.pool.field(node, self.NEXT))
        return out


class SimBST:
    """Unbalanced binary search tree with an explicit *rebalance* pass.

    Node layout: [key, value, left, right].  ``insert`` is the intruder
    *reassembly* pattern: a read-heavy traversal followed by one pointer
    write.  ``rebalance`` rewrites the pointers along a whole root-to-leaf
    path (a large write set), mimicking the occasional red-black tree
    fix-ups that abort every concurrent traversal.
    """

    KEY, VALUE, LEFT, RIGHT = 0, 1, 2, 3

    def __init__(self, space: AddressSpace, pool: NodePool, *, name: str = "bst"):
        self.space = space
        self.pool = pool
        self.name = name
        self.root_addr = space.alloc_words(1)

    def init(self, memory: MainMemory, items) -> None:
        for key, value in items:
            self._host_insert(memory, key, value)

    def _host_insert(self, memory: MainMemory, key: int, value: int) -> None:
        node = self.pool.alloc_init()
        memory.write_word(self.pool.field(node, self.KEY), key)
        memory.write_word(self.pool.field(node, self.VALUE), value)
        memory.write_word(self.pool.field(node, self.LEFT), NULL)
        memory.write_word(self.pool.field(node, self.RIGHT), NULL)
        cursor = memory.read_word(self.root_addr)
        if cursor == NULL:
            memory.write_word(self.root_addr, node)
            return
        while True:
            k = memory.read_word(self.pool.field(cursor, self.KEY))
            side = self.LEFT if key < k else self.RIGHT
            nxt = memory.read_word(self.pool.field(cursor, side))
            if nxt == NULL:
                memory.write_word(self.pool.field(cursor, side), node)
                return
            cursor = nxt

    def insert(self, new: int, key: int, value: int) -> Generator:
        """Transactional insert of the pre-reserved node ``new``; returns
        False on duplicate key."""
        cursor = yield Read(self.root_addr)
        if cursor == NULL:
            yield from self._fill_node(new, key, value)
            yield Write(self.root_addr, new)
            return True
        while True:
            k = yield Read(self.pool.field(cursor, self.KEY))
            if k == key:
                return False
            side = self.LEFT if key < k else self.RIGHT
            nxt = yield Read(self.pool.field(cursor, side))
            if nxt == NULL:
                yield from self._fill_node(new, key, value)
                yield Write(self.pool.field(cursor, side), new)
                return True
            cursor = nxt

    def _fill_node(self, node: int, key: int, value: int) -> Generator:
        yield Write(self.pool.field(node, self.KEY), key)
        yield Write(self.pool.field(node, self.VALUE), value)
        yield Write(self.pool.field(node, self.LEFT), NULL)
        yield Write(self.pool.field(node, self.RIGHT), NULL)

    def contains(self, key: int) -> Generator:
        cursor = yield Read(self.root_addr)
        while cursor != NULL:
            k = yield Read(self.pool.field(cursor, self.KEY))
            if k == key:
                return True
            side = self.LEFT if key < k else self.RIGHT
            cursor = yield Read(self.pool.field(cursor, side))
        return False

    def rebalance_path(self, key: int) -> Generator:
        """Rotate every node along the search path for ``key`` whose
        children are skewed; touches (reads+writes) the whole path."""
        parent_addr = self.root_addr
        cursor = yield Read(self.root_addr)
        depth = 0
        while cursor != NULL and depth < 24:
            depth += 1
            k = yield Read(self.pool.field(cursor, self.KEY))
            left = yield Read(self.pool.field(cursor, self.LEFT))
            yield Read(self.pool.field(cursor, self.RIGHT))
            if key < k:
                if left != NULL:
                    # Right-rotate: left child becomes the subtree root.
                    left_right = yield Read(self.pool.field(left, self.RIGHT))
                    yield Write(self.pool.field(left, self.RIGHT), cursor)
                    yield Write(self.pool.field(cursor, self.LEFT), left_right)
                    yield Write(parent_addr, left)
                    parent_addr = self.pool.field(left, self.RIGHT)
                    cursor = yield Read(parent_addr)
                    continue
                parent_addr = self.pool.field(cursor, self.LEFT)
            else:
                parent_addr = self.pool.field(cursor, self.RIGHT)
            cursor = yield Read(parent_addr)
        return depth

    def host_keys(self, memory: MainMemory) -> List[int]:
        """In-order key walk on committed memory (verify)."""
        out: List[int] = []
        stack: List[int] = []
        cursor = memory.read_word(self.root_addr)
        guard = 0
        while (cursor != NULL or stack) and guard < 1_000_000:
            guard += 1
            while cursor != NULL:
                stack.append(cursor)
                cursor = memory.read_word(self.pool.field(cursor, self.LEFT))
            cursor = stack.pop()
            out.append(memory.read_word(self.pool.field(cursor, self.KEY)))
            cursor = memory.read_word(self.pool.field(cursor, self.RIGHT))
        return out


class SimCounter:
    """A single shared word with read-modify-write helpers."""

    def __init__(self, space: AddressSpace, *, name: str = "counter"):
        self.addr = space.alloc_words(1)
        self.name = name

    def init(self, memory: MainMemory, value: int = 0) -> None:
        memory.write_word(self.addr, value)

    def add(self, delta: int) -> Generator:
        old = yield Read(self.addr)
        yield Write(self.addr, old + delta)
        return old + delta

    def get(self) -> Generator:
        value = yield Read(self.addr)
        return value

    def read_host(self, memory: MainMemory) -> int:
        return memory.read_word(self.addr)
