"""Restartable one-shot timers built on kernel events.

MAC state machines set, clear and re-arm timeouts on almost every frame.
:class:`Timer` wraps the schedule/cancel dance so a state machine can say
``self.timer.start(delay)`` / ``self.timer.stop()`` without tracking raw
event handles, and so a stale callback can never fire after a restart.

Because a Timer owns its handle exclusively — it drops the reference the
moment the event fires or is stopped — its handles are *pooled*:
recycled through the simulator's free list instead of reallocated.  A
restart while armed cancels the pending handle and schedules a fresh one.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import EventHandle
from repro.sim.kernel import SimulationError, Simulator


class Timer:
    """A one-shot timer whose callback fires unless stopped or restarted.

    Restarting implicitly cancels the previous arming, so at most one expiry
    is ever outstanding.  The callback receives no arguments; bind context
    when constructing the timer.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "") -> None:
        self._sim = sim
        self._callback = callback
        self.name = name
        self._handle: Optional[EventHandle] = None

    @property
    def running(self) -> bool:
        """True while an expiry is pending."""
        handle = self._handle
        return handle is not None and not (handle._cancelled or handle._fired)

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time, or None when not running."""
        handle = self._handle
        if handle is not None and not (handle._cancelled or handle._fired):
            return handle.time
        return None

    def _arm(self, time: float) -> None:
        """(Re-)arm at absolute ``time``, cancelling any pending expiry.

        Runs on nearly every frame, so the handle's liveness slots are read
        directly instead of through the ``pending`` property.
        """
        handle = self._handle
        if handle is not None and not (handle._cancelled or handle._fired):
            handle.cancel()
        self._handle = self._sim.at(time, self._expire, pooled=True)

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._arm(self._sim.now + delay)

    def start_at(self, time: float) -> None:
        """Arm (or re-arm) the timer at absolute ``time``."""
        self._arm(time)

    def extend_to(self, time: float) -> None:
        """Push the expiry out to ``time`` if that is later than current.

        Arms the timer when idle.  Used by defer bookkeeping: overheard
        control packets may lengthen, but never shorten, a quiet period
        (Appendix B control rule 11).
        """
        handle = self._handle
        if handle is not None and not (handle._cancelled or handle._fired):
            # A pending expiry never lies in the past, so ``time`` being
            # later than it is already at-or-after ``now`` — no clamp.
            if time > handle.time:
                self._arm(time)
            return
        now = self._sim.now
        self._arm(time if time > now else now)

    def stop(self) -> bool:
        """Disarm the timer.  Returns True when an expiry was pending."""
        handle = self._handle
        self._handle = None
        if handle is not None and not (handle._cancelled or handle._fired):
            handle.cancel()
            return True
        return False

    def _expire(self) -> None:
        # Dropping the reference BEFORE the callback is what makes pooling
        # safe: by the time the kernel recycles the fired handle, no Timer
        # attribute can still name it.
        self._handle = None
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.running:
            return f"Timer({self.name!r}, expires_at={self.expires_at:.6f})"
        return f"Timer({self.name!r}, idle)"
