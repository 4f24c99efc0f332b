"""Unit tests for simulation-level synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Gate, SimLock, SimQueue, SimSemaphore, Simulator


class TestSimLock:
    def test_uncontended_acquire_is_immediate(self):
        sim = Simulator()
        lock = SimLock(sim)
        done = []

        def proc():
            yield lock.acquire()
            done.append(sim.now)
            lock.release()

        sim.spawn(proc())
        sim.run()
        assert done == [0]
        assert not lock.locked

    def test_fifo_ordering_under_contention(self):
        sim = Simulator()
        lock = SimLock(sim)
        order = []

        def proc(tag, hold):
            yield lock.acquire()
            order.append(tag)
            yield sim.timeout(hold)
            lock.release()

        for i, tag in enumerate("abc"):
            sim.spawn(proc(tag, 10))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 30

    def test_release_without_acquire_rejected(self):
        sim = Simulator()
        lock = SimLock(sim)
        with pytest.raises(SimulationError):
            lock.release()

    def test_held_helper(self):
        sim = Simulator()
        lock = SimLock(sim)

        def proc():
            yield from lock.held()
            assert lock.locked
            lock.release()
            return "ok"

        p = sim.spawn(proc())
        assert sim.run(until=p) == "ok"


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
        assert q.peek_all() == [1, 2]


class TestGate:
    def test_open_releases_all_waiters(self):
        sim = Simulator()
        gate = Gate(sim)
        woken = []

        def waiter(tag):
            yield gate.wait()
            woken.append((sim.now, tag))

        for tag in "ab":
            sim.spawn(waiter(tag))

        def opener():
            yield sim.timeout(40)
            assert gate.open("go") == 2

        sim.spawn(opener())
        sim.run()
        assert woken == [(40, "a"), (40, "b")]
        assert gate.n_waiting == 0

    def test_open_with_no_waiters_returns_zero(self):
        sim = Simulator()
        gate = Gate(sim)
        assert gate.open() == 0

    def test_gate_is_repeatable(self):
        sim = Simulator()
        gate = Gate(sim)
        hits = []

        def waiter():
            yield gate.wait()
            hits.append(sim.now)
            yield gate.wait()
            hits.append(sim.now)

        sim.spawn(waiter())

        def opener():
            yield sim.timeout(10)
            gate.open()
            yield sim.timeout(10)
            gate.open()

        sim.spawn(opener())
        sim.run()
        assert hits == [10, 20]


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
        lock = SimLock(sim)
        log = []
        self._grant_after(sim, lock.acquire, log)
        sim.step()  # the timer: ask, grant and go on, one step
        assert log == [("asked", 5), ("granted", 5, None)] and lock.locked
        assert not sim.pending

    def test_uncontended_acquire_still_takes_its_hop(self):
        """An uncontended grant keeps its hop whenever another event is due
        now."""
        sim = Simulator()
        lock = SimLock(sim)
        log = []
        self._grant_after(sim, lock.acquire, log, rival_at=5)
        sim.step()
        assert log == [("asked", 5)] and lock.locked  # held, not yet resumed
        sim.run()
        # The rival was due first: the grant waited behind it, in its place.
        assert log == [("asked", 5), ("rival", 5), ("granted", 5, None)]

    def test_an_uncontended_grant_is_one_shared_processed_event(self):
        sim = Simulator()
        first, second = SimLock(sim).acquire(), SimLock(sim).acquire()
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

    def test_gate_waiter_registered_inside_spawn_sees_the_next_open(self):
        sim = Simulator()
        gate = Gate(sim)
        got = []

        def waiter():
            got.append((yield gate.wait()))

        sim.spawn(waiter())
        assert gate.n_waiting == 1
        assert gate.open("now") == 1
        sim.run()
        assert got == ["now"]
