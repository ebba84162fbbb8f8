"""Cancellable event handles for the simulation kernel.

An :class:`EventHandle` is returned by :meth:`repro.sim.kernel.Simulator.at`
and :meth:`repro.sim.kernel.Simulator.schedule`.  Cancellation is lazy: the
queue entry stays in place but is skipped when it surfaces.  This keeps both
scheduling and cancellation O(log n) / O(1) and avoids the cost of queue
surgery, which matters because MAC state machines cancel timers constantly.

The kernel's heap stores ``(time, priority, seq, handle)`` tuples rather
than the handles themselves, so sift comparisons run on C-level tuples;
:meth:`EventHandle.__lt__` is kept only for code that orders handles
directly.

**Pooling.**  Handles are the dominant allocation in long runs — every
frame arms or rearms a timeout.  A creator that promises never to touch a
handle after it fires or is cancelled (in tree: :class:`repro.sim.timers
.Timer`, which owns its handle exclusively) passes ``pooled=True``; the
kernel then recycles the object through a per-simulator free list,
re-initializing it with :meth:`EventHandle._reinit` instead of paying an
allocation.  Pooling never changes ``seq`` consumption or firing order —
it is invisible to ``events_fired`` and trace digests.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Optional, Tuple

#: Monotonic tie-break counter shared by all simulators in the process.  Two
#: events scheduled for the same instant fire in scheduling order, which makes
#: runs reproducible regardless of queue internals.
_sequence: Iterator[int] = itertools.count()


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Instances are ordered by ``(time, priority, seq)`` so they can live
    directly in a heap.  Lower priority values fire first at the same
    instant; the default is 0.  The physical layer schedules frame-end
    deliveries at priority -1 so that a station processes "I just heard the
    end of that RTS" *before* "my contention slot boundary arrived" when the
    two coincide — a real radio's defer check sees the finished frame.

    ``owner`` (set by the kernel) is notified on :meth:`cancel` so the
    simulator can maintain its live-event count in O(1).  ``_pooled``
    marks a handle whose creator allows the kernel to recycle it after it
    fires or its cancelled entry is purged (see module docstring).
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "args", "owner",
        "_cancelled", "_fired", "_pooled",
    )

    time: float
    priority: int
    seq: int
    callback: Optional[Callable[..., Any]]
    args: Tuple[Any, ...]
    owner: Optional[Any]
    _cancelled: bool
    _fired: bool
    _pooled: bool

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        owner: Optional[Any] = None,
        pooled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = next(_sequence)
        self.callback = callback
        self.args = args
        self.owner = owner
        self._cancelled = False
        self._fired = False
        self._pooled = pooled

    def _reinit(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        priority: int,
        owner: Optional[Any],
    ) -> None:
        """Reset a recycled handle as if freshly constructed (kernel only).

        Draws a new ``seq``, exactly as construction does.  Only the
        kernel's free list calls this, and only for handles whose single
        heap entry was removed.
        """
        self.time = time
        self.priority = priority
        self.seq = next(_sequence)
        self.callback = callback
        self.args = args
        self.owner = owner
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """True when :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """True once the kernel has invoked the callback."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still due to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> bool:
        """Prevent the callback from running.

        Returns True when the event was still pending, False when it had
        already fired or been cancelled (cancelling twice is harmless).
        """
        if self._cancelled or self._fired:
            return False
        self._cancelled = True
        # Break reference cycles early; the queue entry lingers until purged.
        self.callback = None
        self.args = ()
        owner = self.owner
        if owner is not None:
            self.owner = None
            owner._note_cancelled()
        return True

    def _fire(self) -> None:
        """Invoke the callback.  Called by the kernel only."""
        if self._cancelled:
            return
        self._fired = True
        callback, args = self.callback, self.args
        self.callback = None
        self.args = ()
        self.owner = None
        assert callback is not None
        callback(*args)

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"
