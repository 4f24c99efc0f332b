"""Unit tests for simulation-level synchronization primitives."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import LockTable, SimQueue, SimSemaphore, Simulator


class TestSimLock:
    """One key of a :class:`LockTable`: a single FIFO mutex."""

    def test_uncontended_acquire_is_immediate(self):
        sim = Simulator()
        locks = LockTable(sim)
        done = []

        def proc():
            yield locks.acquire("k")
            done.append(sim.now)
            locks.release("k")

        sim.spawn(proc())
        sim.run()
        assert done == [0]
        assert "k" not in locks

    def test_fifo_ordering_under_contention(self):
        sim = Simulator()
        locks = LockTable(sim)
        order = []

        def proc(tag, hold):
            yield locks.acquire("k")
            order.append(tag)
            yield sim.timeout(hold)
            locks.release("k")

        for tag in "abc":
            sim.spawn(proc(tag, 10))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_release_without_acquire_rejected(self):
        sim = Simulator()
        locks = LockTable(sim)
        with pytest.raises(SimulationError):
            locks.release("k")


class _ReferenceLock:
    """One FIFO mutex as a lock was before the table: state kept forever.
    Returns the tags each call grants."""

    def __init__(self):
        self.locked = False
        self.waiters = deque()

    def acquire(self, tag):
        if not self.locked:
            self.locked = True
            return [tag]
        self.waiters.append(tag)
        return []

    def release(self):
        if not self.locked:
            raise SimulationError("release of unlocked lock")
        if self.waiters:
            return [self.waiters.popleft()]
        self.locked = False
        return []


class TestLockTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2)), max_size=40))
    def test_grants_follow_one_reference_lock_per_key(self, ops):
        """Random acquire/release interleavings on a few keys grant in the
        order a dict of per-key FIFO locks does (an uncontended grant being
        ``sim.granted``), the table holds exactly the held keys (so it is
        empty whenever nothing is held) with their waiters, and releasing an
        unheld key raises."""
        sim = Simulator()
        locks = LockTable(sim)
        ref = {k: _ReferenceLock() for k in range(3)}
        waiting = {}  # grant event -> tag
        for tag, (acquire, key) in enumerate(ops):
            if acquire:
                want = ref[key].acquire(tag)
                ev = locks.acquire(key)
                got = [tag] if ev is sim.granted else []
                if not got:
                    waiting[ev] = tag
            else:
                try:
                    want = ref[key].release()
                except SimulationError:
                    with pytest.raises(SimulationError):
                        locks.release(key)
                    continue
                locks.release(key)
                got = [t for ev, t in waiting.items() if ev.triggered]
                waiting = {ev: t for ev, t in waiting.items() if not ev.triggered}
            assert got == want
            held = {k for k, lock in ref.items() if lock.locked}
            assert {k for k in range(3) if k in locks} == held and len(locks) == len(held)
            assert all(len(locks._held[k]) == len(ref[k].waiters) for k in held)


class TestSimSemaphore:
    def test_initial_value_consumed(self):
        sim = Simulator()
        sem = SimSemaphore(sim, value=2)
        got = []

        def proc(tag):
            yield sem.acquire()
            got.append((sim.now, tag))

        for tag in "abc":
            sim.spawn(proc(tag))

        def releaser():
            yield sim.timeout(10)
            sem.release()

        sim.spawn(releaser())
        sim.run()
        assert got == [(0, "a"), (0, "b"), (10, "c")]

    def test_negative_value_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            SimSemaphore(sim, value=-1)

    def test_release_many(self):
        sim = Simulator()
        sem = SimSemaphore(sim, value=0)
        sem.release(3)
        assert sem.value == 3


class TestSimQueue:
    def test_put_then_get(self):
        sim = Simulator()
        q = SimQueue(sim)
        q.put("x")
        got = []

        def proc():
            got.append((yield q.get()))

        sim.spawn(proc())
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        q = SimQueue(sim)
        got = []

        def consumer():
            item = yield q.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(25)
            q.put("late")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert got == [(25, "late")]

    def test_fifo_item_order(self):
        sim = Simulator()
        q = SimQueue(sim)
        for i in range(5):
            q.put(i)
        got = []

        def consumer():
            for _ in range(5):
                got.append((yield q.get()))

        sim.spawn(consumer())
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self):
        sim = Simulator()
        q = SimQueue(sim)
        got = []

        def consumer(tag):
            got.append((tag, (yield q.get())))

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))

        def producer():
            yield sim.timeout(1)
            q.put(100)
            q.put(200)

        sim.spawn(producer())
        sim.run()
        assert got == [("first", 100), ("second", 200)]

    def test_len_and_peek(self):
        sim = Simulator()
        q = SimQueue(sim)
        q.put(1)
        q.put(2)
        assert len(q) == 2
        assert list(q._items) == [1, 2]  # queued, not consumed


class TestHops:
    """What crosses the kernel and what does not (docs/SIMULATION.md "Event
    kernel"): a grant is a step of its own exactly when something else is due
    now — same-time grants at the master are ordered by that hop — and is
    taken in place when it would be the very next event anyway; a process
    starts inside ``spawn()``."""

    @staticmethod
    def _grant_after(sim, wait, log, rival_at=None):
        """A process that wakes at t=5 and waits on ``wait()`` (yielded the
        moment it is made); with ``rival_at``, another entry falls due at
        that time, pushed after the process's own timer."""

        def proc():
            yield sim.timeout(5)
            log.append(("asked", sim.now))
            got = yield wait()
            log.append(("granted", sim.now, got))

        sim.spawn(proc())
        if rival_at is not None:
            sim.timeout(rival_at).add_callback(lambda _e: log.append(("rival", sim.now)))

    def test_uncontended_acquire_goes_on_in_place_when_nothing_else_is_due(self):
        sim = Simulator()
        locks = LockTable(sim)
        log = []
        self._grant_after(sim, lambda: locks.acquire(7), log)
        sim.step()  # the timer: ask, grant and go on, one step
        assert log == [("asked", 5), ("granted", 5, None)] and 7 in locks
        assert not sim.pending

    def test_uncontended_acquire_still_takes_its_hop(self):
        """An uncontended grant keeps its hop whenever another event is due
        now."""
        sim = Simulator()
        locks = LockTable(sim)
        log = []
        self._grant_after(sim, lambda: locks.acquire(7), log, rival_at=5)
        sim.step()
        assert log == [("asked", 5)] and 7 in locks  # held, not yet resumed
        sim.run()
        # The rival was due first: the grant waited behind it, in its place.
        assert log == [("asked", 5), ("rival", 5), ("granted", 5, None)]

    def test_an_uncontended_grant_is_one_shared_processed_event(self):
        sim = Simulator()
        locks = LockTable(sim)
        first, second = locks.acquire(1), locks.acquire(2)
        assert first is second is sim.granted
        assert first.processed and first.ok and not sim.pending

    def test_get_from_a_nonempty_queue_goes_on_in_place_when_nothing_else_is_due(self):
        sim = Simulator()
        q = SimQueue(sim)
        q.put("item")
        log = []
        self._grant_after(sim, q.get, log)
        sim.step()
        assert log == [("asked", 5), ("granted", 5, "item")] and not sim.pending

    def test_get_from_a_nonempty_queue_keeps_its_hop_when_another_event_is_due_now(self):
        sim = Simulator()
        q = SimQueue(sim)
        q.put("item")
        log = []
        self._grant_after(sim, q.get, log, rival_at=5)
        sim.step()
        assert log == [("asked", 5)]
        sim.run()
        assert log == [("asked", 5), ("rival", 5), ("granted", 5, "item")]

    def test_get_from_a_nonempty_queue_still_takes_its_hop(self):
        """Outside a step nothing goes on in place."""
        sim = Simulator()
        q = SimQueue(sim)
        q.put("item")
        got = q.get()
        assert got.triggered and not got.processed
        sim.step()
        assert got.processed and got.value == "item"

    def test_getters_queue_in_spawn_order(self):
        """Processes reach their first ``get`` inside ``spawn()``, so the
        spawn order is the service order (cores of a node, managers of a
        master)."""
        sim = Simulator()
        q = SimQueue(sim)
        served = []

        def worker(tag):
            served.append((tag, (yield q.get())))

        for tag in "abc":
            sim.spawn(worker(tag))
        for item in (1, 2, 3):  # before any event was processed
            q.put(item)
        sim.run()
        assert served == [("a", 1), ("b", 2), ("c", 3)]
