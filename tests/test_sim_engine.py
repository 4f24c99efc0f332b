"""Unit tests for the discrete-event kernel."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import LockTable, SimQueue, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(100)
    sim.run()
    assert sim.now == 100


def test_timeout_value_delivered_to_process():
    sim = Simulator()
    seen = []

    def proc():
        val = yield sim.timeout(10, value="hello")
        seen.append(val)

    sim.spawn(proc())
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append((sim.now, tag))

    sim.spawn(proc(30, "c"))
    sim.spawn(proc(10, "a"))
    sim.spawn(proc(20, "b"))
    sim.run()
    assert order == [(10, "a"), (20, "b"), (30, "c")]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in "abcd":
        sim.spawn(proc(tag))
    sim.run()
    assert order == list("abcd")


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        return 42

    def parent():
        result = yield sim.spawn(child())
        return result * 2

    p = sim.spawn(parent())
    assert sim.run(until=p) == 84


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            return f"caught {exc}"

    p = sim.spawn(parent())
    assert sim.run(until=p) == "caught boom"


def test_uncaught_process_exception_raises_from_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1)
        raise ValueError("boom")

    p = sim.spawn(child())
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=p)


def test_event_succeed_twice_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_manual_event_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def firer():
        yield sim.timeout(50)
        ev.succeed("data")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == ["data"]
    assert sim.now == 50


def test_run_until_deadline_stops_midway():
    sim = Simulator()
    hits = []

    def proc():
        for _ in range(10):
            yield sim.timeout(10)
            hits.append(sim.now)

    sim.spawn(proc())
    sim.run(until=45)
    assert hits == [10, 20, 30, 40]
    assert sim.now == 45


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered

    def waiter():
        yield ev

    p = sim.spawn(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=p)


def test_all_of_collects_values():
    sim = Simulator()
    ev = sim.all_of([sim.timeout(5, "a"), sim.timeout(3, "b"), sim.timeout(9, "c")])

    def waiter():
        return (yield ev)

    p = sim.spawn(waiter())
    assert sim.run(until=p) == ["a", "b", "c"]
    assert sim.now == 9


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def waiter():
        return (yield sim.all_of([]))

    p = sim.spawn(waiter())
    assert sim.run(until=p) == []


class _Expected(Exception):
    pass


def _failing(sim, delay, exc):
    ev = sim.event()
    sim.timeout(delay).add_callback(lambda _e: ev.fail(exc))
    return ev


def test_all_of_tolerated_failure_leaves_none_and_waits_for_the_rest():
    sim = Simulator()
    ev = sim.all_of(
        [sim.timeout(5, "a"), _failing(sim, 3, _Expected()), sim.timeout(9, "c")],
        tolerate=lambda exc: isinstance(exc, _Expected),
    )

    def waiter():
        return (yield ev)

    assert sim.run(until=sim.spawn(waiter())) == ["a", None, "c"]
    assert sim.now == 9 and ev.tolerated == 1


def test_all_of_untolerated_failure_fails_at_once():
    sim = Simulator()
    seen = []
    ev = sim.all_of(
        [sim.timeout(5, "a"), _failing(sim, 3, ValueError("boom")), sim.timeout(9, "c")],
        tolerate=lambda exc: seen.append(exc) or isinstance(exc, _Expected),
    )

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return sim.now, str(exc)

    assert sim.run(until=sim.spawn(waiter())) == (3, "boom")
    assert [str(exc) for exc in seen] == ["boom"]  # asked once, at the failure
    sim.run()  # the children still pending settle without raising
    assert sim.now == 9


def test_any_of_returns_first():
    sim = Simulator()

    def waiter():
        return (yield sim.any_of([sim.timeout(50, "slow"), sim.timeout(5, "fast")]))

    p = sim.spawn(waiter())
    assert sim.run(until=p) == (1, "fast")
    assert sim.now == 5


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def bad():
        yield 123

    p = sim.spawn(bad())
    with pytest.raises(SimulationError, match="non-event"):
        sim.run(until=p)


def test_late_callback_still_invoked():
    sim = Simulator()
    ev = sim.timeout(1, "v")
    sim.run()
    assert ev.processed
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["v"]


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        trace = []

        def proc(i):
            for k in range(3):
                yield sim.timeout(7 * (i + 1))
                trace.append((sim.now, i, k))

        for i in range(5):
            sim.spawn(proc(i))
        sim.run()
        return trace

    assert build() == build()


def test_cancelled_timeout_advances_clock_without_callbacks():
    sim = Simulator()
    fired = []
    t = sim.timeout(100)
    t.add_callback(lambda _e: fired.append(1))
    t.cancel()
    sim.run()
    # The heap entry stays, so the clock still reaches the timer's expiry —
    # cancellation must not perturb event ordering for everything else.
    assert sim.now == 100
    assert fired == []
    assert t.cancelled and t.processed


def test_cancelled_failed_event_does_not_raise():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody should see this"))
    ev.cancel()
    sim.run()  # a live failed event with no waiters would raise here
    assert ev.processed


def test_cancel_after_processing_is_a_noop():
    sim = Simulator()
    seen = []
    t = sim.timeout(5)
    t.add_callback(lambda _e: seen.append(sim.now))
    sim.run()
    t.cancel()
    assert seen == [5]


# -- a process starts inside spawn() -------------------------------------------


def test_spawn_runs_the_first_segment_immediately():
    sim = Simulator()
    log = []

    def proc():
        log.append("first segment")
        yield sim.timeout(5)
        log.append("second segment")

    p = sim.spawn(proc())
    assert log == ["first segment"]  # before a single event was processed
    assert not p.triggered
    sim.run()
    assert log == ["first segment", "second segment"]
    assert sim.now == 5


def test_raising_before_the_first_yield_fails_the_process():
    sim = Simulator()

    def bad():
        raise ValueError("no first yield")
        yield  # pragma: no cover - generator protocol

    p = sim.spawn(bad())  # the error belongs to the process, not to spawn()
    assert p.processed and not p.ok
    with pytest.raises(ValueError, match="no first yield"):
        sim.run(until=p)

    def waiter():
        try:
            yield sim.spawn(bad())
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run(until=sim.spawn(waiter())) == "caught no first yield"


# -- events nobody waits on are settled in place -------------------------------


def test_unwatched_process_is_processed_the_moment_it_finishes():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5)
        return 7

    p = sim.spawn(proc())
    # Pushed after the process's own timer, so it fires right after the
    # process finished, in the same instant: no completion event in between.
    sim.timeout(5).add_callback(lambda _e: seen.append((p.processed, p.value)))
    sim.run()
    assert seen == [(True, 7)]
    assert sim.run(until=p) == 7


def test_unwatched_failed_process_raises_from_run_until():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)
        raise KeyError("late")

    p = sim.spawn(proc())
    with pytest.raises(KeyError, match="late"):
        sim.run()  # nobody waits and no on_error: like any unwatched failure
    assert sim.now == 5 and p.processed and not p.ok
    with pytest.raises(KeyError, match="late"):
        sim.run(until=p)


def test_unwatched_crash_in_the_first_segment_stays_with_the_process():
    sim = Simulator()

    def boom():
        raise KeyError("early")
        yield  # pragma: no cover - generator protocol

    p = sim.spawn(boom())  # does not raise out of spawn() ...
    sim.run()  # ... nor out of the kernel: the spawner holds the process
    assert p.processed and not p.ok
    with pytest.raises(KeyError, match="early"):
        sim.run(until=p)


def test_a_crash_a_waiter_subscribes_to_in_the_same_instant_reaches_it():
    sim = Simulator()

    def boom():
        yield sim.timeout(5)
        raise KeyError("late")

    p = sim.spawn(boom())
    caught = []

    def waiter():
        yield sim.timeout(5)  # pushed after boom's timer: subscribes after the crash
        try:
            yield p
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    sim.spawn(waiter())
    sim.run()
    assert caught == [(5, "late")]


def test_on_error_takes_the_crash_and_the_process_finishes_quietly():
    sim = Simulator()
    seen = []

    def boom(when):
        yield sim.timeout(when)
        raise KeyError(when)

    early = sim.spawn(boom(0), on_error=seen.append)
    late = sim.spawn(boom(5), "late", seen.append)
    sim.run()
    assert [exc.args[0] for exc in seen] == [0, 5]
    assert early.ok and late.ok and sim.run(until=late) is None

    def first_segment():
        raise KeyError("first")
        yield  # pragma: no cover - generator protocol

    assert sim.spawn(first_segment(), on_error=seen.append).ok
    assert seen[-1].args[0] == "first"


def test_an_exception_out_of_on_error_is_the_process_failure():
    sim = Simulator()

    def boom():
        yield sim.timeout(1)
        raise KeyError("inner")

    def hook(exc):
        raise RuntimeError(f"reported {exc.args[0]}")

    sim.spawn(boom(), on_error=hook)
    with pytest.raises(RuntimeError, match="reported inner"):
        sim.run()


def test_late_waiter_on_a_settled_process_resumes_on_the_next_slot():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(3)
        return "done"

    p = sim.spawn(child())
    sim.run()
    assert p.processed

    def waiter():
        got.append((sim.now, (yield p)))

    sim.spawn(waiter())
    assert got == []  # subscribed late: fires from the heap, not synchronously
    sim.step()
    assert got == [(3, "done")]


def _child_and_parent(sim):
    def child():
        yield sim.timeout(1)
        return 1

    def parent(p):
        return (yield p) + 1

    p = sim.spawn(child())
    return p, sim.spawn(parent(p))


def test_watched_completion_is_handed_off_when_nothing_else_is_due():
    sim = Simulator()
    p, q = _child_and_parent(sim)
    # The child's timer: it finishes with a waiter subscribed, so completion
    # is an event — and the one thing due now, so the same step runs it.
    sim.step()
    assert p.processed and q.processed and q.value == 2 and not sim.pending


def test_watched_process_still_completes_through_the_heap():
    """Completion is an event: with an entry due at the same time, it waits
    its turn behind it."""
    sim = Simulator()
    p, q = _child_and_parent(sim)
    rival = sim.timeout(1)  # due at the same time, pushed after the child's timer
    sim.step()
    assert p.triggered and not p.processed and not q.triggered
    sim.step()  # the heap entry due now goes first ...
    assert rival.processed and not p.processed
    sim.step()  # ... then the completion
    assert p.processed and q.processed and q.value == 2


def test_plain_succeed_crosses_the_heap_even_when_unwatched():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    assert ev.triggered and not ev.processed
    sim.run()
    assert ev.processed and ev.value == "v"


def test_settle_is_in_place_only_when_nobody_is_subscribed():
    sim = Simulator()
    alone = sim.event()
    alone.settle("a")
    assert alone.processed and alone.value == "a"
    with pytest.raises(SimulationError, match="twice"):
        alone.settle("again")

    seen = []
    watched = sim.event()
    watched.add_callback(lambda e: seen.append(e.value))
    watched.settle("w")
    assert watched.triggered and not watched.processed and seen == []
    sim.run()
    assert seen == ["w"]


def test_failed_plain_event_nobody_waited_on_raises_out_of_step():
    sim = Simulator()
    sim.event().fail(RuntimeError("unseen"))
    with pytest.raises(RuntimeError, match="unseen"):
        sim.step()


def test_run_until_a_past_deadline_is_refused():
    """A deadline before now would move the clock backwards; a timeout
    pending then fired at its old time, after the clock had read less."""
    sim = Simulator()
    sim.run(until=100)
    late = sim.timeout(10)
    with pytest.raises(SimulationError, match="before now"):
        sim.run(until=50)
    assert sim.now == 100
    sim.run(until=100)  # now itself is a deadline that has not passed
    sim.run()
    assert late.processed and sim.now == 110


def test_schedule_calls_back_in_push_order_with_no_event():
    sim = Simulator()
    seen = []
    sim.schedule(5, seen.append, "b")
    sim.timeout(5).add_callback(lambda _e: seen.append("c"))
    sim.schedule(3, seen.append, "a")
    sim.schedule(0, seen.append, "now")  # zero delay: the same-time FIFO
    assert sim.pending == 4
    sim.run()
    assert seen == ["now", "a", "b", "c"] and sim.now == 5


def test_sleep_is_a_timeout_without_an_event():
    sim = Simulator()
    order = []

    def sleeper(tag, delay):
        yield sim.sleep(delay)
        order.append((sim.now, tag))

    sim.timeout(5).add_callback(lambda _e: order.append((sim.now, "timer")))
    sim.spawn(sleeper("five", 5))  # pushed after the timer: fires after it
    sim.spawn(sleeper("now", 0))
    assert sim.pending == 3  # one heap entry each, the zero sleep in the FIFO
    sim.run()
    assert order == [(0, "now"), (5, "timer"), (5, "five")]
    with pytest.raises(SimulationError, match="negative"):
        sim.sleep(-1)
    with pytest.raises(AttributeError):  # not an event: no waiting on it elsewhere
        sim.all_of([sim.sleep(1)])


def test_negative_succeed_delay_rejected_before_triggering():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="negative delay"):
        ev.succeed(delay=-1)
    assert not ev.triggered


# -- process soup --------------------------------------------------------------

DELAYS = st.sampled_from([0, 1, 1, 2, 3, 5])  # few values: expiry times collide


class _IntoHeap:
    """The reference kernel's same-time "FIFO": every push is a heap entry."""

    def __init__(self, sim):
        self.sim = sim

    def __len__(self):
        return 0

    def append(self, event):
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq, None, event))


class ReferenceSimulator(Simulator):
    """The kernel without the FIFO, without hand-offs and without event-free
    sleeps: one ``(time, seq, fn, arg)`` heap holds every scheduled entry,
    ``seq`` counting every push, and each step processes exactly one entry —
    the order the FIFO kernel must reproduce event for event."""

    def __init__(self):
        super().__init__()
        self._fifo = _IntoHeap(self)

    def sleep(self, delay):
        return self.timeout(delay)  # what a sleep stands for: a timeout event

    def step(self):
        when, _seq, fn, event = heappop(self._heap)
        assert when >= self.now
        self.now = when
        self._solo = None  # no process goes on in place: every wait is a hop
        if fn is not None:
            fn(event)
            return
        callbacks, event.callbacks = event.callbacks, ()
        event._processed = True
        if event._cancelled:
            return
        for cb in callbacks:
            cb(event)
        if not event._ok and not callbacks:
            raise event._value


def _ops(depth):
    leaf = st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("cancel"), DELAYS),
        st.tuples(st.just("any"), st.lists(DELAYS, min_size=1, max_size=3)),
        st.tuples(st.just("all"), st.lists(DELAYS, min_size=0, max_size=3)),
        st.tuples(st.just("put"), st.integers(0, 1)),
        st.tuples(st.just("get"), st.integers(0, 1)),
        st.tuples(st.just("park"), st.just(None)),
        st.tuples(st.just("succeed"), DELAYS),
        st.tuples(st.just("settle"), st.booleans()),
        st.tuples(st.just("late"), st.just(None)),
        st.tuples(st.just("lock"), st.tuples(st.integers(0, 1), DELAYS)),
        st.tuples(st.just("nap"), DELAYS),
        st.tuples(st.just("deliver"), st.tuples(DELAYS, st.integers(0, 1))),
    )
    if depth == 0:
        return st.lists(leaf, max_size=5)
    return st.lists(
        st.one_of(leaf, st.tuples(st.just("spawn"), _ops(depth - 1))), max_size=6
    )


def _run_soup(scripts, deadlines=(), kernel=Simulator):
    """Run the scripts as processes, first to each deadline in turn, then
    until nothing is scheduled; returns what the properties need."""
    sim = kernel()
    queues = [SimQueue(sim), SimQueue(sim)]
    locks = LockTable(sim)
    log = []  # everything observable, in the order it happened
    fired = []  # (fire time, timer serial) per timer callback
    timers = []  # serial -> (expiry, cancelled)
    made = []  # events a "late" op may wait on, oldest first
    due = []  # when each timer and delayed succeed is scheduled to fire
    procs = []
    trace = []  # after every step: the clock and how much was observed

    def timer(delay, cancelled=False):
        serial = len(timers)
        timers.append((sim.now + delay, cancelled))
        due.append(sim.now + delay)
        t = sim.timeout(delay, value=serial)
        t.add_callback(lambda e: fired.append((sim.now, e.value)))
        if cancelled:
            t.cancel()  # waiting on it would park forever
        else:
            made.append(t)
        return t

    def body(me, script):
        for op, arg in script:
            log.append((sim.now, me, op))
            if op == "sleep":
                log.append((yield timer(arg)))
            elif op == "cancel":
                timer(arg, cancelled=True)
            elif op == "any":
                log.append((yield sim.any_of([timer(d) for d in arg])))
            elif op == "all":
                log.append((yield sim.all_of([timer(d) for d in arg])))
            elif op == "put":
                queues[arg].put((me, sim.now))
            elif op == "get":
                log.append((yield queues[arg].get()))
            elif op == "park":
                # Waits on an event nobody triggers: the process never
                # resumes, and the run still ends.
                yield sim.event()
            elif op == "succeed":
                ev = sim.event()
                made.append(ev)
                due.append(sim.now + arg)
                log.append((yield ev.succeed((me, sim.now), delay=arg)))
            elif op == "settle":
                ev = sim.event()
                made.append(ev)
                if arg:  # watched: scheduled; unwatched: processed in place
                    ev.add_callback(lambda e, me=me: log.append((sim.now, me, "settled")))
                ev.settle((me, sim.now))
                log.append((yield ev))  # late subscription when processed
            elif op == "late":
                if made:
                    log.append((yield made[0]))  # the oldest: most likely processed
            elif op == "lock":
                # Held across a sleep (contended when another process holds
                # it), or released at once (uncontended if free).
                k, hold = arg
                yield locks.acquire(k)
                log.append((sim.now, me, "locked", k))
                if hold:
                    log.append((yield timer(hold)))
                locks.release(k)
            elif op == "nap":  # a sleep: no event, one heap entry
                due.append(sim.now + arg)
                yield sim.sleep(arg)
                log.append((sim.now, me, "woke"))
            elif op == "deliver":
                # A callback entry, the way the fabric delivers a frame: it
                # puts the frame into a mailbox a getter may wait on.
                delay, k = arg
                due.append(sim.now + delay)

                def arrive(frame, k=k):
                    log.append((sim.now, "arrived", frame))
                    queues[k].put(frame)

                sim.schedule(delay, arrive, (me, sim.now))
            else:
                start(arg)
        return me

    def start(script):
        me = len(procs)
        procs.append(None)
        procs[me] = sim.spawn(body(me, script), name=f"p{me}")

    step = sim.step

    def traced_step():
        step()
        trace.append((sim.now, len(log), len(fired)))

    sim.step = traced_step
    for script in scripts:
        start(script)
    for deadline in sorted(deadlines):
        sim.run(until=deadline)
        trace.append(("until", sim.now, len(log), len(fired)))
    sim.run()
    assert not sim.pending
    clock = [entry[0] for entry in trace if entry[0] != "until"]
    states = [(p.processed, p.ok) for p in procs]
    return log, fired, timers, clock, states, due, trace


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops(2), min_size=1, max_size=5))
def test_process_soup_keeps_the_kernel_contract(scripts):
    log, fired, timers, clock, states, due, _trace = _run_soup(scripts)
    # Time never decreases, and the run ends at the last expiry there was —
    # a cancelled timer's included: it fires nothing but advances the clock.
    assert clock == sorted(clock)
    if due:
        assert clock[-1] == max(due)
    # Every live timer's callback fired exactly once, at its expiry; a
    # cancelled one's never did.
    assert sorted(serial for _, serial in fired) == [
        serial for serial, (_, cancelled) in enumerate(timers) if not cancelled
    ]
    assert all(at == timers[serial][0] for at, serial in fired)
    # Same-time events fire in push order (serials count pushes).
    assert fired == sorted(fired)
    # No process crashed: the soup raises nothing it does not catch.
    assert all(ok for _, ok in states)
    # Determinism: the same scripts give the same run.
    assert (log, fired, timers, clock, states) == _run_soup(scripts)[:5]


def _is_subsequence(part, whole):
    it = iter(whole)
    return all(any(entry == other for other in it) for entry in part)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_ops(2), min_size=1, max_size=5),
    st.lists(st.integers(0, 8), max_size=4),
)
def test_fifo_kernel_fires_in_reference_heap_order(scripts, deadlines):
    """Same-time events beside the heap, and hand-offs, change where an
    event waits and which call processes it, never when it fires: everything
    observed equals a kernel that keeps every entry in one ``(time, seq)``
    heap and processes one per step — deadlines that fall while same-time
    work is pending included.  A hand-off skips step boundaries but never
    reorders them, so the per-step trace is an order-preserving subsequence
    of the reference's."""
    log, fired, timers, _clock, states, due, trace = _run_soup(scripts, deadlines)
    ref = _run_soup(scripts, deadlines, ReferenceSimulator)
    assert (log, fired, timers, states, due) == (ref[0], ref[1], ref[2], ref[4], ref[5])
    assert _is_subsequence(trace, ref[6])


def test_same_time_work_runs_after_the_heap_entries_due_now():
    """Heap entries due at T were pushed before the clock reached T, so they
    precede every zero-delay push made at T."""
    sim = Simulator()
    order = []
    for tag in "ab":
        sim.timeout(5).add_callback(
            lambda _e, tag=tag: (order.append(tag), sim.timeout(0).add_callback(
                lambda _e, tag=tag: order.append(tag + "0")
            ))
        )
    sim.step()
    assert (sim.now, order, sim.pending) == (5, ["a"], 2)
    sim.run()
    assert order == ["a", "b", "a0", "b0"]


def test_run_until_a_deadline_finishes_the_work_due_at_it():
    sim = Simulator()
    seen = []

    def chain(k):
        seen.append((sim.now, k))
        if k < 3:
            sim.timeout(0).add_callback(lambda _e: chain(k + 1))

    sim.timeout(4).add_callback(lambda _e: chain(0))
    sim.timeout(5)
    sim.run(until=4)
    assert seen == [(4, 0), (4, 1), (4, 2), (4, 3)]
    assert sim.now == 4 and sim.pending == 1
