"""Discrete-event simulation kernel.

The whole DQEMU reproduction runs on virtual time: guest execution, network
transfers and protocol handling all advance a single simulated clock measured
in nanoseconds.  The kernel is a small, deterministic event loop in the style
of SimPy: *processes* are Python generators that ``yield`` events, and the
:class:`Simulator` fires events in ``(time, seq)`` order, ``seq`` counting
pushes.  Ties are broken by insertion sequence, which makes every run
bit-for-bit reproducible.

The order lives in two containers.  An entry due later than now is a
``(time, seq, fn, arg)`` tuple of a binary heap: ``fn(arg)`` for a plain
callback (a frame's delivery, :meth:`Simulator.schedule`, a process's
:meth:`Simulator.sleep`), ``fn is None`` and ``arg`` the event for an event.
An event due *now* is appended to a FIFO beside it, no tuple and no heap
operation.  Every heap entry due at time T was pushed before the clock
reached T, so it precedes every zero-delay push made at T:
:meth:`Simulator.step` takes the heap entries due now, then the FIFO, and
only then advances the clock — exactly ``(time, seq)`` order.

The kernel's fixed cost is paid once per entry, so the hot constructors
(:class:`Timeout`, :meth:`Event.succeed`) fill their slots and schedule
themselves, and what would be the very next entry anyway takes no second
trip through the loop: a process runs its first segment inside
:meth:`Simulator.spawn`, an event settled with nobody subscribed
(:meth:`Event.settle`) is processed in place, a *hand-off* is processed by
the :meth:`Simulator.step` before it, and a process waits in place on what
it just triggered (:meth:`Process._resume`).
docs/SIMULATION.md "Event kernel" states the contract.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Simulator",
]

#: What a processed event's ``callbacks`` slot holds.  Immutable, so a
#: subscriber that bypassed :meth:`Event.add_callback` fails loudly instead of
#: being silently dropped.
_NO_CALLBACKS: tuple = ()


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, and then invokes its callbacks when the
    simulator processes it.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Neutralize a scheduled event: when it is popped, it is discarded
        without running callbacks (and a failed one without raising).

        The entry itself stays put — removing from the middle of a binary heap
        is O(n) — so the clock still advances to the entry's time exactly as
        it would have for the live event.  Meant for armed timers whose
        outcome is no longer wanted (an RPC timeout whose reply arrived); a
        long-lived channel that re-arms timers cancels the stale ones instead
        of accumulating dead callbacks.
        """
        self._cancelled = True

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully after ``delay`` ns (default: now)."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._triggered = True
        self._value = value
        if delay:
            self.sim._push(self, delay)
        else:
            self.sim._fifo.append(self)
        return self

    def settle(self, value: Any = None) -> None:
        """:meth:`succeed` now, not scheduled when nobody is subscribed.

        An event with no callback has nothing to run when it is popped, so it
        is marked processed right here; a subscriber arriving later takes the
        late-subscription path of :meth:`add_callback` (next
        scheduling slot), exactly as it would have after the pop.  Only for
        events no one else can trigger or reach any more — a process
        finishing, a fault's in-flight marker already out of its table; a
        plain :meth:`succeed` is always scheduled.
        """
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        if self.callbacks:
            self.sim._fifo.append(self)
        else:
            self._processed = True
            self.callbacks = _NO_CALLBACKS

    def fail(self, exc: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._push(self, delay)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._processed:
            # Late subscription: run on the next scheduling slot so the
            # callback still observes a consistent "after the event" world.
            stub = Event(self.sim)
            stub.callbacks.append(lambda _e: cb(self))
            stub._triggered = True
            stub._value = self._value
            stub._ok = True
            self.sim._fifo.append(stub)
        else:
            self.callbacks.append(cb)


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Event.__init__ and Simulator._push, inlined: born triggered.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._cancelled = False
        if delay:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now + delay, seq, None, self))
        else:
            sim._fifo.append(self)


class Process(Event):
    """A generator-driven simulation process.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event fires (receiving its value via ``send``, or its
    exception via ``throw``).  The process *is itself an event* that triggers
    when the generator returns, carrying the return value, so processes can
    wait on one another.  ``on_error``, when given, is called with whatever
    the generator raises (see :meth:`_crash`).
    """

    __slots__ = ("_gen", "name", "_on_error")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = "?",
                 on_error: Optional[Callable[[BaseException], None]] = None):
        Event.__init__(self, sim)
        self._gen = gen
        self.name = name
        self._on_error = on_error
        # The first segment runs right here, up to the first ``yield``: a
        # start event would carry no information through the kernel.
        self._resume(_STARTED)

    def _resume(self, trigger: Event) -> None:
        """Run the generator from ``trigger`` to its next wait.

        As the sole callback of the entry :meth:`Simulator.step` runs, this
        is the step's last effect: a yielded event that is the kernel's very
        next one (no heap entry due now, and the event alone in the FIFO or
        already processed with the FIFO empty) is waited on in place."""
        sim = self.sim
        tail = trigger is sim._solo
        gen = self._gen
        while True:
            try:
                if trigger._ok:
                    target = gen.send(trigger._value)
                else:
                    target = gen.throw(trigger._value)
            except StopIteration as stop:
                self.settle(stop.value)
                return
            except BaseException as exc:  # propagate crash to waiters
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                self._crash(exc, trigger)
                return
            if target is _SLEEP:  # Simulator.sleep: no event, one heap entry
                if sim._nap:
                    sim._seq = seq = sim._seq + 1
                    heappush(sim._heap, (sim.now + sim._nap, seq, self._resume, _WOKEN))
                    return
                target = Timeout(sim, 0)  # now: a FIFO event like any other
            try:
                processed = target._processed
            except AttributeError:  # not an event
                self._crash(
                    SimulationError(f"process {self.name!r} yielded non-event {target!r}"),
                    trigger,
                )
                return
            if tail:
                fifo = sim._fifo
                if processed:
                    alone = not fifo
                else:  # just triggered, and nothing else waits on it
                    alone = (
                        fifo and fifo[0] is target and fifo[-1] is target
                        and not target.callbacks and not target._cancelled
                    )
                if alone:
                    heap = sim._heap
                    if not heap or heap[0][0] != sim.now:
                        if not processed:
                            fifo.pop()
                            target.callbacks = _NO_CALLBACKS
                            target._processed = True
                        trigger = target
                        continue
            if processed:
                target.add_callback(self._resume)
            else:
                target.callbacks.append(self._resume)
            return

    def _crash(self, exc: BaseException, trigger: Event) -> None:
        """The generator raised ``exc`` while resumed by ``trigger``.

        With an ``on_error`` hook the hook takes it and the process finishes
        with ``None``; an exception out of the hook is the process's failure
        instead.  A failure is thrown into whoever waits on the process, and
        one nobody waits on raises out of :meth:`Simulator.step` like any
        unwatched failed event — except a crash in the first segment, which
        runs inside ``spawn()``: that one is settled in place for the spawner
        to find (``run(until=proc)``, a later ``yield``)."""
        on_error = self._on_error
        if on_error is not None:
            try:
                on_error(exc)
            except Exception as err:  # the hook's failure is the process's
                exc = err
            else:
                self.settle()
                return
        if trigger is _STARTED:
            self._ok = False
            self.settle(exc)
        else:
            self.fail(exc)


#: What a new process's first ``send`` sees as its trigger: ok, no value.
_STARTED = Event(None)  # type: ignore[arg-type]
#: The same, for a process waking from :meth:`Simulator.sleep` ...
_WOKEN = Event(None)  # type: ignore[arg-type]
#: ... which returns this for the process to yield; not an event, so using
#: it as one fails loudly.
_SLEEP = object()


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    A failed child fails it at once, unless ``tolerate(exc)`` says that
    failure is expected: the child's slot then stays ``None``, ``tolerated``
    counts it, and the others are still awaited."""

    __slots__ = ("_pending", "_values", "_tolerate", "tolerated")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 tolerate: Optional[Callable[[BaseException], bool]] = None):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: list[Any] = [None] * len(events)
        self._tolerate = tolerate
        self.tolerated = 0
        if not events:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            ev.add_callback(lambda e, i=i: self._child(i, e))

    def _child(self, i: int, ev: Event) -> None:
        if self._triggered:
            return
        if ev._ok:
            self._values[i] = ev._value
        elif self._tolerate is not None and self._tolerate(ev._value):
            self.tolerated += 1
        else:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._values)


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for i, ev in enumerate(events):
            ev.add_callback(lambda e, i=i: self._child(i, e))

    def _child(self, i: int, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
        else:
            self.succeed((i, ev._value))


class Simulator:
    """Deterministic discrete-event loop with an integer nanosecond clock."""

    def __init__(self) -> None:
        self.now: int = 0
        #: ``(time, seq, fn, arg)`` entries due after ``now`` (module docstring).
        self._heap: list[tuple[int, int, Optional[Callable[[Any], None]], Any]] = []
        #: Events due at ``now``, in push order (module docstring).
        self._fifo: deque[Event] = deque()
        self._seq = 0
        #: The event being stepped while it has one callback (:meth:`step`).
        self._solo: Optional[Event] = None
        #: The delay of the sleep a process is about to yield.
        self._nap = 0
        #: Every uncontended :class:`~repro.sim.sync.LockTable` grant: an event
        #: already processed.
        self.granted = Event(self)
        self.granted.settle()

    # -- scheduling ---------------------------------------------------------

    def _push(self, event: Event, delay: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        delay = int(delay)
        if delay:
            self._seq += 1
            heappush(self._heap, (self.now + delay, self._seq, None, event))
        else:
            self._fifo.append(event)

    def schedule(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Call ``fn(arg)`` after ``delay`` ns: one heap entry, no event.

        For work nobody waits on (a frame's delivery); a zero delay still
        takes its place in the same-time FIFO, carried by an event."""
        if delay > 0:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (self.now + delay, seq, fn, arg))
        else:
            Timeout(self, delay, arg).callbacks.append(lambda e: fn(e._value))

    @property
    def pending(self) -> int:
        """Scheduled events not yet processed, in both containers."""
        return len(self._heap) + len(self._fifo)

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, int(delay), value)

    def sleep(self, delay: int) -> object:
        """What a process yields to wait ``delay`` ns: ``yield sim.sleep(ns)``
        is ``yield sim.timeout(ns)`` without an event.  The process resumes
        from one heap entry pushed where the timeout would have been (the
        yield is the moment it is asked for), so the order is the same."""
        delay = int(delay)
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self._nap = delay
        return _SLEEP

    def spawn(self, gen: Generator[Event, Any, Any], name: str = "?",
              on_error: Optional[Callable[[BaseException], None]] = None) -> Process:
        """Start a generator as a new process: it runs to its first ``yield``
        before this returns.  ``on_error`` takes the process's crash instead
        of its waiters (:meth:`Process._crash`)."""
        return Process(self, gen, name, on_error)

    def all_of(self, events: Iterable[Event],
               tolerate: Optional[Callable[[BaseException], bool]] = None) -> AllOf:
        """An event firing once every one of ``events`` has (:class:`AllOf`;
        ``tolerate`` names the failures that leave a ``None`` instead)."""
        return AllOf(self, events, tolerate)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- main loop ----------------------------------------------------------

    def step(self) -> None:
        """Process the next entry — a heap entry due now, else the FIFO's
        head, else the heap's head, advancing the clock to it — and its
        hand-offs: when the entry's sole callback (a plain callback entry
        is one) started with the FIFO empty and left exactly one event in
        it, and no heap entry is due now, that event is the very next one in
        ``(time, seq)`` order, so it is processed here too, and so on."""
        fifo = self._fifo
        heap = self._heap
        now = self.now
        if fifo:
            if heap and heap[0][0] == now:
                _when, _seq, fn, event = heappop(heap)
            else:
                fn = None
                event = fifo.popleft()
        else:
            # Every push is at now or later, and run() refuses a past
            # deadline: the clock never goes backwards.
            now, _seq, fn, event = heappop(heap)
            self.now = now
        while True:
            empty = not fifo
            if fn is not None:
                self._solo = event  # the sole callback (a sleep's resume sees _WOKEN)
                fn(event)
            else:
                callbacks = event.callbacks
                event.callbacks = _NO_CALLBACKS
                event._processed = True
                if event._cancelled:
                    # Same clock advance a live no-op callback would have
                    # caused, but neither callbacks nor the failed-event
                    # check run.
                    return
                try:
                    (cb,) = callbacks
                except ValueError:  # none or several: no hand-off
                    self._solo = None
                    for cb in callbacks:
                        cb(event)
                    if not event._ok and not callbacks:
                        # A failed event nobody waited on would silently
                        # swallow the exception; surface it instead.
                        raise event._value
                    return
                self._solo = event
                cb(event)
            if not (empty and fifo and fifo[0] is fifo[-1]) or (heap and heap[0][0] == now):
                return
            fn = None
            event = fifo.popleft()

    def run(self, until: Optional[Event | int] = None) -> Any:
        """Run until nothing is scheduled, a deadline passes, or an event
        fires.

        ``until`` may be an :class:`Event` (returns its value; raises if it
        failed) or an integer virtual-time deadline in ns, which must not
        be earlier than now: the clock never goes backwards.
        """
        heap, fifo = self._heap, self._fifo
        if isinstance(until, Event):
            while not until._processed:
                if not heap and not fifo:
                    raise SimulationError(
                        f"simulation deadlocked at t={self.now} ns waiting for event"
                    )
                self.step()
            if not until._ok:
                raise until._value
            return until._value
        deadline = None if until is None else int(until)
        if deadline is not None and deadline < self.now:
            raise SimulationError(f"run(until={deadline}) is before now (t={self.now} ns)")
        while heap or fifo:
            if deadline is not None and (self.now if fifo else heap[0][0]) > deadline:
                self.now = deadline
                return None
            self.step()
        if deadline is not None:
            self.now = deadline
        return None
