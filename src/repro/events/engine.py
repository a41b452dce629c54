"""The discrete-event simulation engine.

The entire T Series model runs on this kernel.  Simulated time is an
integer count of **nanoseconds**; integer time makes every hardware
latency in the paper exactly representable (the 125 ns arithmetic cycle,
the 400 ns memory access, the 5 µs DMA startup) and keeps event ordering
deterministic across platforms.

The programming model is the generator-coroutine style familiar from
SimPy: a *process* is a Python generator that yields
:class:`Event` objects and is resumed when they fire.

Fast path
---------
Zero-delay URGENT schedules (rendezvous completions, resource grants,
process starts and resumptions) dominate event traffic, and they need
no priority queue at all: they all fire *now*, in scheduling order.
The engine therefore keeps a same-timestamp FIFO **fast lane** beside
the ``heapq`` and routes ``delay == 0, priority == URGENT`` schedules
into it, firing the lane ahead of equal-time NORMAL heap entries —
exactly the order the heap would have produced, without the push/pop
and without consuming sequence numbers.  Resuming a process on an
already-processed event (and starting a new process) uses a slim
``[callback, event]`` record instead of allocating a shim
:class:`Event`.

The simulator has **two kernel tiers**, selected per object at
construction time from the environment (see :func:`kernel_tier`):

* ``reference`` — ``REPRO_SLOW_KERNEL=1``: the pure-heap path (every
  schedule goes through the priority queue, resumptions allocate shim
  events), byte-at-a-time CP decode, per-op vector arithmetic, no
  timing memoization;
* ``turbo`` — the default: the fast lane, resume records and an
  inline resume trampoline for processes that yield already-fired
  events, the CP's decoded-instruction cache and basic-block
  translator, and whole-chain batched arithmetic in
  :mod:`repro.fpu.vector_forms`.

Both tiers produce bit-identical simulated-time results; the
differential fuzzers and golden traces compare them.

Example
-------
>>> from repro.events import Engine
>>> eng = Engine()
>>> def worker(eng, log):
...     yield eng.timeout(125)
...     log.append(eng.now)
>>> log = []
>>> _ = eng.process(worker(eng, log))
>>> eng.run()
>>> log
[125]
"""

import contextlib
import heapq
import math
import os
from collections import deque

from repro.events.errors import (
    DeadlockError,
    Interrupt,
    SimulationError,
    StopSimulation,
)

#: Sentinel priority classes for event scheduling.  ``URGENT`` events at a
#: given time fire before ``NORMAL`` events at the same time; the kernel
#: uses this to complete rendezvous handshakes before ordinary timeouts.
URGENT = 0
NORMAL = 1


def slow_kernel_requested() -> bool:
    """True if the environment asks for the pure-heap reference kernel."""
    return os.environ.get("REPRO_SLOW_KERNEL", "") not in ("", "0")


#: The kernel tiers, slowest first.
KERNEL_TIERS = ("reference", "turbo")


def kernel_tier() -> str:
    """The kernel tier the environment currently selects:
    ``reference`` under ``REPRO_SLOW_KERNEL=1`` (baselines and
    conformance), otherwise ``turbo`` — the default."""
    return "reference" if slow_kernel_requested() else "turbo"


@contextlib.contextmanager
def force_kernel(tier):
    """Context manager selecting a kernel tier for everything built
    inside.

    The kernel choice is sampled at *construction* time (by
    :class:`Engine`, the CP's decoded/translated instruction caches,
    and the vector unit's timing memoization), so the
    differential-testing oracle builds each scenario once per tier —
    ``force_kernel("reference")`` and ``force_kernel("turbo")`` — and
    compares the runs.  The previous environment value is restored on
    exit.
    """
    if tier not in KERNEL_TIERS:
        raise ValueError(f"unknown kernel tier {tier!r}")
    saved = os.environ.get("REPRO_SLOW_KERNEL")
    os.environ["REPRO_SLOW_KERNEL"] = "1" if tier == "reference" else "0"
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_SLOW_KERNEL", None)
        else:
            os.environ["REPRO_SLOW_KERNEL"] = saved


def _delay_ns(delay):
    """Normalise a delay to integer nanoseconds.

    Integers (and integral floats) pass through unchanged.  Fractional
    delays are **rounded half-up** — never silently truncated, which
    could shorten simulated durations (e.g. ``int(2.9) == 2``).
    """
    ns = int(delay)
    if ns != delay:
        ns = math.floor(delay + 0.5)
    return ns


#: Unique sentinel marking "no value yet" (module-level: a global
#: lookup is cheaper than a class-attribute lookup on the hot paths).
_PENDING = object()


class Event:
    """A happening at a point in simulated time.

    Events move through three states:

    * *pending* — created, not yet triggered;
    * *triggered* — a value (or exception) has been set and the event is
      queued to fire;
    * *processed* — callbacks have run and waiting processes resumed.

    Attributes
    ----------
    callbacks : list or None
        Callables invoked with the event when it is processed.  ``None``
        once processed.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused")

    #: Unique sentinel marking "no value yet".
    PENDING = _PENDING

    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False

    @property
    def triggered(self):
        """True once the event has a value and is queued (or processed)."""
        return self._value is not _PENDING

    @property
    def processed(self):
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self):
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self):
        """The event's value, or the exception it failed with."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value=None, delay=0, priority=NORMAL):
        """Trigger the event successfully with ``value``.

        ``delay`` schedules the firing that many nanoseconds in the
        future.  Returns the event so calls can be chained.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.engine._schedule(self, delay, priority)
        return self

    def fail(self, exception, delay=0, priority=NORMAL):
        """Trigger the event with an exception.

        Processes waiting on the event will have ``exception`` thrown
        into them.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.engine._schedule(self, delay, priority)
        return self

    def defuse(self):
        """Mark a failed event as handled so the engine will not re-raise
        its exception at the top level."""
        self._defused = True

    def __and__(self, other):
        return AllOf(self.engine, [self, other])

    def __or__(self, other):
        return AnyOf(self.engine, [self, other])

    def __repr__(self):
        state = (
            "processed" if self.processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


# Fast-lane resume records are plain two-element lists
# ``[callback, event]`` — a list literal is a single C-level
# allocation, the cheapest mutable record CPython offers.  Slot 0 is
# set to ``None`` when an interrupt wins the race against the pending
# resumption (the shim-based equivalent removed the callback from the
# shim's callback list).  Nothing else in the lane can be a list:
# every real queue entry is an :class:`Event`.


class _Start:
    """Sentinel outcome used to kick off a process's first resume on
    the fast path (the reference path allocates an :class:`Initialize`
    event instead)."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Timeout(Event):
    """An event that fires after a fixed delay.

    Created via :meth:`Engine.timeout`; it is triggered at construction,
    so it cannot be succeeded or failed manually.  Non-integer delays
    are rounded half-up to whole nanoseconds (see :func:`_delay_ns`) —
    they are never silently truncated.
    """

    __slots__ = ("delay",)

    def __init__(self, engine, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        if type(delay) is not int:
            delay = _delay_ns(delay)
        # Event.__init__ inlined (timeouts are the hottest allocation).
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        # Zero-delay timeouts fire at the current instant with NORMAL
        # priority; on the turbo tier they take the nlane FIFO instead
        # of a heap round-trip.  Real delays go through the priority
        # queue; push directly rather than via _schedule.
        if delay == 0 and engine._nlane is not None:
            engine._nlane.append(self)
            return
        heapq.heappush(
            engine._heap, (engine._now + delay, NORMAL, engine._seq, self)
        )
        engine._seq += 1
        engine.heap_pushes += 1

    def __repr__(self):
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event used to start a process at the current time."""

    __slots__ = ()

    def __init__(self, engine, process):
        super().__init__(engine)
        self.callbacks.append(process._resume_cb)
        self._ok = True
        self._value = None
        if engine._fast:
            engine._lane.append(self)
        else:
            engine._schedule(self, 0, URGENT)


class Process(Event):
    """A running generator coroutine.

    A Process is itself an Event: it succeeds with the generator's
    return value when the generator finishes, or fails with the
    exception that escaped it.  This lets processes wait on each other
    simply by yielding them.
    """

    __slots__ = (
        "_generator", "_send", "_resume_cb", "_target", "_name"
    )

    def __init__(self, engine, generator, name=None):
        # ``send`` is bound once here; ``throw`` is looked up lazily in
        # _resume — failures are rare and the extra bound method per
        # spawn is measurable in spawn-heavy workloads.
        try:
            self._send = generator.send
        except AttributeError:
            raise TypeError(f"{generator!r} is not a generator") from None
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        # Event.__init__ inlined (one Process per spawned activity).
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        # A bound method is allocated on every attribute access; resumes
        # happen once per yield, so bind it exactly once.
        self._resume_cb = self._resume
        self._target = None
        self._name = name
        if engine._fast:
            engine._lane.append([self._resume_cb, _START])
        else:
            Initialize(engine, self)

    @property
    def name(self):
        """The process name (defaults to the generator's name)."""
        if self._name is None:
            self._name = getattr(self._generator, "__name__", "process")
        return self._name

    @property
    def is_alive(self):
        """True while the underlying generator has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupt` into the process at the current time.

        A process cannot interrupt itself and a finished process cannot
        be interrupted.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated")
        if self is self.engine.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.engine)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume_cb)
        self.engine._schedule(event, 0, URGENT)
        # Unsubscribe from the event we were waiting on: the interrupt
        # wins the race, and a later firing of the old target must not
        # resume us twice.
        target = self._target
        if target is not None:
            if target.__class__ is list:
                target[0] = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        self._target = None

    def _resume(self, event):
        """Resume the generator with the outcome of ``event``."""
        # Hot names bound locally: a resume is the single most frequent
        # operation in the simulator, and the turbo trampoline can keep
        # one _resume call spinning for thousands of yields.  ``tramp``
        # batches the counter updates those inline resumes owe; every
        # exit path flushes it (run() defers its counters the same way).
        engine = self.engine
        send = self._send
        lane = engine._lane
        fast = engine._fast
        tramp = 0
        # _PENDING (never a generator's yield value) marks "no memo":
        # a plain None would false-match a process yielding None.
        spin = _PENDING
        engine._active = self
        while True:
            try:
                if event._ok:
                    result = send(event._value)
                else:
                    event._defused = True
                    result = self._generator.throw(event._value)
            except StopIteration as stop:
                engine._active = None
                self._ok = True
                self._value = stop.value
                callbacks = self.callbacks
                if (fast and engine._solo_cb
                        and not lane and not engine._durgent
                        and callbacks is not None
                        and len(callbacks) == 1):
                    # Completion trampoline (turbo tier): this process
                    # event would be the lane's only entry and nothing
                    # can fire before it, so dispatch its sole waiter
                    # inline — counters advance exactly as the lane
                    # round-trip's would.
                    engine.events_processed += tramp + 1
                    engine.lane_hits += tramp + 1
                    self.callbacks = None
                    callbacks[0](self)
                    return
                if tramp:
                    engine.events_processed += tramp
                    engine.lane_hits += tramp
                if fast:
                    lane.append(self)
                else:
                    engine._schedule(self, 0, URGENT)
                return
            except BaseException as exc:
                engine._active = None
                self._ok = False
                self._value = exc
                if tramp:
                    engine.events_processed += tramp
                    engine.lane_hits += tramp
                if fast:
                    lane.append(self)
                else:
                    engine._schedule(self, 0, URGENT)
                return

            if result is spin:
                # Same-event spin (turbo): the process keeps yielding
                # one event it already validated, and a processed
                # event stays processed — skip revalidation and resume
                # with the identical outcome.
                if not lane and engine._solo_cb and not engine._durgent:
                    tramp += 1
                    continue
                spin = _PENDING

            # Duck-typed validation: probing the two attributes every
            # Event has is cheaper than an isinstance() on this hot path.
            try:
                callbacks = result.callbacks
                if result.engine is not engine:
                    engine._active = None
                    raise SimulationError(
                        f"process {self.name!r} yielded an event "
                        f"from another engine"
                    )
            except AttributeError:
                engine._active = None
                raise SimulationError(
                    f"process {self.name!r} yielded {result!r}, not an Event"
                ) from None
            if callbacks is None:
                # Already processed: resume immediately (at the current
                # time, urgently, so ordering stays deterministic).
                if not result._ok:
                    result._defused = True
                if (fast and not lane and engine._solo_cb
                        and not engine._durgent):
                    # Trampoline (turbo tier): the resume record would
                    # be the lane's only entry, and with no URGENT heap
                    # entries nothing can fire before it — so it would
                    # fire immediately next.  Resume inline instead of
                    # round-tripping through the lane; the counters
                    # advance exactly as the record path's would.
                    tramp += 1
                    spin = result
                    event = result
                    continue
                engine._active = None
                if fast:
                    record = [self._resume_cb, result]
                    lane.append(record)
                    self._target = record
                else:
                    shim = Event(engine)
                    shim._ok = result._ok
                    shim._value = result._value
                    if not result._ok:
                        shim._defused = True
                    shim.callbacks.append(self._resume_cb)
                    engine._schedule(shim, 0, URGENT)
                    self._target = shim
            else:
                if (fast and not callbacks and lane
                        and lane[0] is result
                        and engine._solo_cb and not engine._durgent
                        and result._value is not _PENDING):
                    # Front-of-lane trampoline (turbo tier): the
                    # yielded event is already triggered, has no other
                    # waiters, and sits at the head of the lane — the
                    # next dispatch would pop exactly it and resume
                    # this very process.  Do that here: pop it, mark it
                    # processed, resume inline.  (Uncontended resource
                    # grants, Store puts, and the getter side of a
                    # channel rendezvous hit this constantly.)
                    lane.popleft()
                    result.callbacks = None
                    if not result._ok:
                        result._defused = True
                    tramp += 1
                    # The spin memo must track the event we resume
                    # with: leaving a stale memo here would replay the
                    # *previous* event's value on a later re-yield.
                    spin = result
                    event = result
                    continue
                engine._active = None
                callbacks.append(self._resume_cb)
                self._target = result
            if tramp:
                engine.events_processed += tramp
                engine.lane_hits += tramp
            return

    def __repr__(self):
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Condition(Event):
    """Base for composite events over a set of sub-events."""

    __slots__ = ("events", "_count")

    def __init__(self, engine, events):
        super().__init__(engine)
        self.events = list(events)
        for ev in self.events:
            if ev.engine is not engine:
                raise SimulationError("events from different engines")
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self):
        """Map each already-fired sub-event to its value."""
        return {
            i: ev._value
            for i, ev in enumerate(self.events)
            if ev.processed and ev._ok
        }

    def _check(self, event):
        raise NotImplementedError


class AllOf(Condition):
    """Fires when *all* sub-events have fired; value maps index→value."""

    __slots__ = ()

    def _check(self, event):
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed(self._collect())


class AnyOf(Condition):
    """Fires when *any* sub-event fires; value maps index→value for the
    sub-events that had fired by then."""

    __slots__ = ()

    def _check(self, event):
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        self.succeed(self._collect())


class Engine:
    """The event loop: an URGENT fast lane plus a priority queue of
    ``(time, priority, seq, event)`` records.

    All model components share one Engine.  The sequence number breaks
    ties so that equal-time heap events fire in the order they were
    scheduled; fast-lane entries are FIFO by construction.  Runs are
    fully deterministic on both the fast and the reference path.

    Profiling counters (reset never; see
    :func:`repro.analysis.tracing.engine_stats`):

    * ``events_processed`` — events (and resume records) fired;
    * ``heap_pushes`` — schedules that went through the priority queue;
    * ``lane_hits`` — events fired from the URGENT fast lane.
    """

    __slots__ = (
        "_now", "_heap", "_lane", "_nlane", "_seq", "_active",
        "_fast", "_durgent", "_fire_urgent", "_solo_cb",
        "events_processed", "heap_pushes", "lane_hits",
        "fault_log", "cp_cpus", "vaus",
    )

    def __init__(self):
        self._now = 0
        self._heap = []
        self._lane = deque()
        self._seq = 0
        self._active = None
        # Turbo tier: the fast lane, resume records, and resume
        # trampolining (see Process._resume).  The CP and the vector
        # unit sample the tier themselves.
        self._fast = kernel_tier() != "reference"
        # Turbo tier: FIFO for zero-delay NORMAL schedules (mostly
        # ``timeout(0)``).  They fire at the current instant after all
        # URGENT traffic and after any heap entries that reached the
        # current time with a positive delay; since every zero-delay
        # NORMAL lands here, a heap entry at the current time always
        # predates (has a smaller would-be seq than) every nlane entry,
        # so "drain heap entries at now, then the nlane" reproduces the
        # heap order exactly — without the push/pop.
        self._nlane = deque() if self._fast else None
        # True while dispatching an event that had exactly one callback
        # (set at every dispatch site).  The resume trampoline may only
        # run inline when no sibling callbacks of the firing event are
        # still pending — an interrupt from a sibling must win the race
        # against the queued resume record, exactly as on the record
        # path.
        self._solo_cb = False
        # URGENT entries currently in the heap.  Zero in steady state on
        # the fast path (zero-delay URGENT takes the lane), which lets
        # the hot loop skip the heap-top inspection entirely.
        self._durgent = 0
        # Pre-bound "fire this event now, urgently" entry point for the
        # rendezvous/grant hot paths: a raw C ``deque.append`` on the
        # fast kernel, the generic scheduler on the reference kernel.
        if self._fast:
            self._fire_urgent = self._lane.append
        else:
            self._fire_urgent = self._urgent_via_heap
        self.events_processed = 0
        self.heap_pushes = 0
        self.lane_hits = 0
        # Installed by repro.system.faultlog.FaultLog; None means no
        # fault bookkeeping for this run (record_fault() is a no-op).
        self.fault_log = None
        # CPUs attached via CPU.as_process, so engine_stats can roll up
        # their decoded/translated-cache counters.
        self.cp_cpus = []
        # Vector arithmetic units built on this engine, so engine_stats
        # can roll up their batched-form counters.
        self.vaus = []

    @property
    def now(self):
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self):
        """The process currently being resumed, or None."""
        return self._active

    @property
    def fast_kernel(self):
        """True when this engine uses the fast-lane kernel."""
        return self._fast

    @property
    def kernel_tier(self):
        """This engine's tier: ``reference`` or ``turbo`` (sampled from
        the environment at construction)."""
        return "turbo" if self._fast else "reference"

    # -- scheduling ---------------------------------------------------

    def _urgent_via_heap(self, event):
        """Reference-kernel form of :attr:`_fire_urgent`."""
        self._schedule(event, 0, URGENT)

    def _schedule(self, event, delay=0, priority=NORMAL):
        if delay == 0 and priority == URGENT and self._fast:
            # Fast lane: fires at the current time, ahead of equal-time
            # NORMAL heap entries, in FIFO (= would-be seq) order.
            self._lane.append(event)
            return
        if delay == 0 and priority == NORMAL and self._nlane is not None:
            self._nlane.append(event)
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        if type(delay) is not int:
            delay = _delay_ns(delay)
        heapq.heappush(
            self._heap, (self._now + delay, priority, self._seq, event)
        )
        self._seq += 1
        self.heap_pushes += 1
        if priority == URGENT:
            self._durgent += 1

    def timeout(self, delay, value=None):
        """Return an event that fires ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def event(self):
        """Return a fresh, untriggered event."""
        return Event(self)

    def process(self, generator, name=None):
        """Start ``generator`` as a process; returns the Process event."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Composite event firing when every event in ``events`` fires."""
        return AllOf(self, events)

    def any_of(self, events):
        """Composite event firing when the first event in ``events`` fires."""
        return AnyOf(self, events)

    # -- execution ----------------------------------------------------

    def peek(self):
        """Time of the next scheduled event, or None if the queue is empty."""
        if self._lane or self._nlane:
            return self._now
        return self._heap[0][0] if self._heap else None

    def _lane_first(self):
        """True when the next event to fire comes from the fast lane.

        Lane entries fire at the current time with URGENT priority and
        a later sequence number than anything already in the queue, so
        the only queue entries that may precede them are URGENT entries
        *at the current time* — which can only have been scheduled with
        a positive delay (zero-delay URGENT always takes the lane).
        """
        if not self._lane:
            return False
        if not self._durgent:
            return True
        heap = self._heap
        return not (heap and heap[0][0] == self._now and heap[0][1] == URGENT)

    def step(self):
        """Process exactly one event (or fast-lane resume record).

        Raises :class:`DeadlockError` when the queue is empty.
        """
        if self._lane_first():
            entry = self._lane.popleft()
            self.events_processed += 1
            self.lane_hits += 1
            if entry.__class__ is list:
                callback = entry[0]
                if callback is not None:
                    self._solo_cb = True
                    callback(entry[1])
                return
            event = entry
        elif self._nlane and not (
            self._heap and self._heap[0][0] == self._now
        ):
            # Zero-delay NORMAL FIFO: fires at the current instant once
            # the lane is clear and no queue entry has reached ``now``.
            event = self._nlane.popleft()
            self.events_processed += 1
            self.lane_hits += 1
        else:
            if not self._heap:
                raise DeadlockError("event queue empty")
            when, prio, _seq, event = heapq.heappop(self._heap)
            if when < self._now:
                raise SimulationError("time went backwards")  # pragma: no cover
            if prio == URGENT:
                self._durgent -= 1
            self._now = when
            self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        self._solo_cb = len(callbacks) == 1
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until=None):
        """Run until the queue drains, ``until`` is reached, or a stop
        event fires.

        Parameters
        ----------
        until : int, Event, or None
            ``None`` runs to queue exhaustion.  An integer runs until
            simulated time reaches that value (events at exactly
            ``until`` do not fire).  An :class:`Event` runs until that
            event is processed and returns its value.
        """
        until_time = None
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: mirror its outcome without running.
                if not until._ok:
                    until.defuse()
                    raise until._value
                return until._value

            def _stop(event):
                if not event._ok:
                    # Defuse exactly once, here: the step loop below
                    # never sees the event again after we raise.
                    event.defuse()
                    raise event._value
                raise StopSimulation(event._value)

            until.callbacks.append(_stop)
        elif until is not None:
            until_time = int(until)
            if until_time < self._now:
                raise ValueError(
                    f"until={until_time} is in the past (now={self._now})"
                )
            if until_time == self._now:
                # Events at exactly ``until`` (including fast-lane
                # entries at the current instant) do not fire.
                return None

        # The hot loop.  Identical semantics to repeated step() calls,
        # with the dispatch inlined and hot names bound locally.
        heap = self._heap
        lane = self._lane
        # () stands in for the absent nlane on the reference tier:
        # always falsy, so the nlane branch below is never taken.
        nlane = self._nlane if self._nlane is not None else ()
        heappop = heapq.heappop
        resume_cls = list
        processed = 0
        lane_fired = 0
        try:
            while heap or lane or nlane:
                if lane and (
                    not self._durgent
                    or not (
                        heap
                        and heap[0][0] == self._now
                        and heap[0][1] == URGENT
                    )
                ):
                    entry = lane.popleft()
                    processed += 1
                    lane_fired += 1
                    if entry.__class__ is resume_cls:
                        callback = entry[0]
                        if callback is not None:
                            self._solo_cb = True
                            callback(entry[1])
                        continue
                    event = entry
                elif nlane and not (heap and heap[0][0] == self._now):
                    event = nlane.popleft()
                    processed += 1
                    lane_fired += 1
                else:
                    when = heap[0][0]
                    if until_time is not None and when >= until_time:
                        self._now = until_time
                        return None
                    when, prio, _seq, event = heappop(heap)
                    if prio == URGENT:
                        self._durgent -= 1
                    self._now = when
                    processed += 1
                callbacks, event.callbacks = event.callbacks, None
                if len(callbacks) == 1:
                    self._solo_cb = True
                    callbacks[0](event)
                else:
                    self._solo_cb = False
                    for callback in callbacks:
                        callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += processed
            self.lane_hits += lane_fired
        if isinstance(until, Event) and not until.triggered:
            raise DeadlockError(
                "run() target event never fired; model deadlocked"
            )
        if until_time is not None:
            self._now = until_time
        return None

    def __repr__(self):
        queued = len(self._heap) + len(self._lane)
        if self._nlane is not None:
            queued += len(self._nlane)
        return f"<Engine now={self._now} queued={queued}>"
