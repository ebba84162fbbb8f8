"""The discrete-event simulator.

A :class:`Simulator` owns the virtual clock and the pending-event heap.
Model code schedules callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.at` (absolute time) and drives the
run with :meth:`Simulator.run`.  The kernel guarantees:

* events fire in non-decreasing time order;
* events scheduled for the same instant fire in scheduling order;
* a cancelled event never fires;
* the clock never moves backwards.

The pending events live in one binary heap of ``(time, priority, seq,
handle)`` tuples, so every sift comparison is a C-level tuple compare
(``seq`` is unique, so the handle itself is never compared).  Schedule
and pop are O(log n).  Cancellation is lazy: a cancelled entry stays
queued and is dropped when it surfaces at the head.  A live-event
counter — O(1) on schedule, fire and cancel — answers
:meth:`Simulator.pending_count` without walking the heap, and triggers
a compaction sweep when a heap larger than :data:`COMPACT_MIN_SIZE`
falls below half live.  Every pop path (``run``, ``step`` and ``peek``)
shares that accounting.

Handles created with ``pooled=True`` (the promise that the creator never
touches a handle after it fires or is cancelled —
:class:`repro.sim.timers.Timer` does this) are recycled through a
per-simulator free list instead of reallocated.

The paper's simulator (§3) is event-driven at packet granularity; runs of
500–2000 simulated seconds at 256 kbps produce on the order of 10^5–10^6
events, which this pure-Python kernel handles comfortably.

Observability hooks into the kernel through a single *passive clock
observer* (:meth:`Simulator.attach_observer`): a callback invoked with the
time the clock is about to advance to, *before* the event at that instant
fires.  Because the observer schedules nothing and fires nothing, it is
invisible to the event stream — ``events_fired`` and trace digests are
byte-identical with or without one attached, which is the determinism
contract :mod:`repro.obs` relies on.  The observer slot is re-read every
iteration, so an observer attached or detached by a fired event takes
effect at the very next clock advance.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import EventHandle
from repro.sim.rng import RandomStreams
from repro.sim.trace import Trace

#: Compact when the heap holds more than this many entries and fewer than
#: half of them are live.  Small enough to bound memory on cancel-heavy
#: workloads, large enough that compaction never shows up on short runs.
COMPACT_MIN_SIZE = 512

#: Upper bound on the handle free list: enough to cover every timer a
#: large cell keeps in flight, small enough that a burst of cancellations
#: cannot pin memory forever.
POOL_MAX = 1024

#: A queued event, ordered by ``(time, priority, seq)``.
Entry = Tuple[float, int, int, EventHandle]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad run bounds)."""


class Simulator:
    """Event-driven simulation core with a seeded random-stream registry.

    Parameters
    ----------
    seed:
        Master seed for :class:`~repro.sim.rng.RandomStreams`.  Every source
        of randomness in a run (per-station protocol jitter, traffic, noise)
        derives an independent child stream from this seed, so a single
        integer reproduces an entire experiment.
    trace:
        Optional :class:`~repro.sim.trace.Trace` used by model components to
        record protocol events for post-run analysis.
    """

    def __init__(self, seed: int = 0, trace: Optional[Trace] = None) -> None:
        self._now = 0.0
        #: Pending entries, dead (cancelled) ones included until purged.
        #: Compaction rewrites the list in place, so a local alias held
        #: by the run loop stays valid.
        self._heap: List[Entry] = []
        #: Live (non-cancelled) entries in ``_heap``.
        self._live = 0
        #: Free list of recycled pooled handles.
        self._free: List[EventHandle] = []
        self._running = False
        self._stopped = False
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else Trace(enabled=False)
        #: Number of events fired so far (useful for benchmarks and debugging).
        self.events_fired = 0
        #: Passive clock observer (see :meth:`attach_observer`); None when
        #: observability is off, which keeps the run loop at a single
        #: ``is not None`` test per fired event.
        self._observer: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------- observing
    def attach_observer(self, observer: Callable[[float], None]) -> None:
        """Register a passive clock observer.

        ``observer(next_time)`` is called whenever the clock is about to
        advance — immediately before the first event at ``next_time`` fires,
        and once more with the ``until`` horizon when :meth:`run` pads the
        clock out to it.  The callback therefore sees the simulation state
        "at ``next_time`` minus epsilon", which is exactly what a periodic
        sampler wants.

        The observer MUST be passive: it must not schedule or cancel
        events, write trace records, or draw from the random streams.
        Violating this breaks the determinism contract (identical
        ``events_fired`` and trace digests with the observer on or off).
        Only one observer may be attached at a time.  Attaching from
        inside a fired event is allowed: the slot is consulted afresh at
        every clock advance.
        """
        if self._observer is not None:
            raise SimulationError("a clock observer is already attached")
        self._observer = observer

    def detach_observer(self, observer: Callable[[float], None]) -> None:
        """Detach ``observer`` if it is the one currently attached.

        Compared with ``==`` rather than ``is``: each attribute access on
        a bound method builds a fresh object, so ``sim.detach_observer(
        self._on_advance)`` must still match the one attached earlier.
        """
        if self._observer == observer:
            self._observer = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------ scheduling
    def at(self, time: float, callback: Callable[..., Any], *args: Any,
           priority: int = 0, pooled: bool = False) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        ``priority`` breaks same-instant ties: lower fires first (frame-end
        deliveries use -1 so defer state is current at slot boundaries).
        ``pooled`` lets the kernel recycle the handle after it fires or
        its cancellation is collected — pass it only when no reference to
        the handle outlives those moments (:class:`~repro.sim.timers
        .Timer` qualifies; most model code should leave it off).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, clock already at {self._now:.9f}"
            )
        free = self._free
        if pooled and free:
            handle = free.pop()
            handle._reinit(time, callback, args, priority, self)
        else:
            handle = EventHandle(time, callback, args, priority=priority,
                                 owner=self, pooled=pooled)
        heappush(self._heap, (time, priority, handle.seq, handle))
        self._live += 1
        return handle

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 pooled: bool = False) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        The hottest scheduling entry point in MAC-heavy runs, so the
        :meth:`at` body is inlined (a non-negative delay from ``now`` can
        never land in the past — no clock check needed).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        free = self._free
        if pooled and free:
            handle = free.pop()
            handle._reinit(time, callback, args, 0, self)
        else:
            handle = EventHandle(time, callback, args, owner=self,
                                 pooled=pooled)
        heappush(self._heap, (time, 0, handle.seq, handle))
        self._live += 1
        return handle

    def call_soon(self, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at the current instant.

        The callback runs after every event already scheduled for ``now``,
        preserving causal ordering within a single instant.
        """
        return self.at(self._now, callback, *args)

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> float:
        """Fire events until the horizon (or queue exhaustion) and return
        the final clock value.

        With ``until`` given, the clock is advanced to exactly ``until`` even
        if the queue drains earlier, so back-to-back ``run`` calls behave
        like one long run.  Events scheduled at exactly ``until`` DO fire
        (the horizon is inclusive), which lets experiments observe state at
        clean boundaries.

        ``events_fired`` is committed when ``run`` returns; a callback
        reading it mid-run sees the pre-run value (and :meth:`step` is
        rejected inside a run for the same reason).
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run until t={until:.9f} is in the past (now={self._now:.9f})"
            )
        self._running = True
        self._stopped = False
        heap = self._heap
        free = self._free
        horizon = float("inf") if until is None else until
        # The counter accumulates in a local and lands back on the attribute
        # in the finally block — ``events_fired`` read from inside a callback
        # is the pre-run value until the run returns, and ``step()`` refuses
        # to run re-entrantly so its direct increment can never be clobbered
        # by the write-back.  (The loop body below is :meth:`_head` and
        # :meth:`EventHandle._fire` inlined: entries are popped before their
        # callback runs, so a queued handle is pending or cancelled, never
        # fired, and the ``_cancelled`` slot is the whole liveness test.)
        fired = self.events_fired
        try:
            while heap and not self._stopped:
                entry = heap[0]
                head = entry[3]
                if head._cancelled:
                    heappop(heap)
                    self._purged(head)
                    continue
                time = entry[0]
                if time > horizon:
                    break
                heappop(heap)
                self._live -= 1
                # Re-read per iteration: a fired event may attach/detach.
                observer = self._observer
                if observer is not None and time > self._now:
                    observer(time)
                self._now = time
                head._fired = True
                callback = head.callback
                args = head.args
                head.callback = None
                head.args = ()
                head.owner = None
                callback(*args)  # type: ignore[misc]
                fired += 1
                if head._pooled and len(free) < POOL_MAX:
                    free.append(head)
        finally:
            self.events_fired = fired
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            observer = self._observer
            if observer is not None:
                observer(until)
            self._now = until
        return self._now

    def step(self) -> bool:
        """Fire exactly one pending event.  Returns False when none remain.

        Not callable from inside :meth:`run`: the run loop batches its
        ``events_fired`` updates, so a re-entrant step's increment would
        be silently clobbered when the loop writes the counter back.
        """
        if self._running:
            raise SimulationError("step() cannot be called from inside run()")
        entry = self._head()
        if entry is None:
            return False
        heappop(self._heap)
        self._live -= 1
        head = entry[3]
        observer = self._observer
        if observer is not None and head.time > self._now:
            observer(head.time)
        self._now = head.time
        head._fire()
        self.events_fired += 1
        if head._pooled and len(self._free) < POOL_MAX:
            self._free.append(head)
        return True

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when the queue is empty."""
        entry = self._head()
        return None if entry is None else entry[0]

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    # ------------------------------------------------------ dead accounting
    def _head(self) -> Optional[Entry]:
        """The next live entry, left queued; dead heads are purged on the way."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[3]._cancelled:
                return entry
            heappop(heap)
            self._purged(entry[3])
        return None

    def _note_cancelled(self) -> None:
        """One queued event was cancelled; its entry stays until purged.

        :meth:`EventHandle.cancel` calls this on its owner.  MAC state
        machines cancel constantly, so the compaction test is inline.
        """
        self._live -= 1
        heap = self._heap
        if len(heap) > COMPACT_MIN_SIZE and self._live < len(heap) // 2:
            self._compact()

    def _purged(self, head: EventHandle) -> None:
        """A dead entry left through the head: recycle it, keep pressure."""
        if head._pooled and len(self._free) < POOL_MAX:
            self._free.append(head)
        heap = self._heap
        if len(heap) > COMPACT_MIN_SIZE and self._live < len(heap) // 2:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap, in place, from its live entries only.

        Ordering is unaffected: entries keep their ``(time, priority,
        seq)`` keys.  Cancelled pooled handles go back to the free list;
        each one had exactly this single entry, so it is recycled once.
        """
        heap = self._heap
        free = self._free
        for entry in heap:
            head = entry[3]
            if head._cancelled and head._pooled and len(free) < POOL_MAX:
                free.append(head)
        heap[:] = [entry for entry in heap if not entry[3]._cancelled]
        heapify(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.6f}, pending={self.pending_count()},"
            f" fired={self.events_fired})"
        )
