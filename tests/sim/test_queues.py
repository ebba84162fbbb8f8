"""Event-queue behaviour of the kernel's binary heap: same-instant order, rearm."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer


# The kernel has one event queue, a binary heap; the ``heap`` id names it.
@pytest.mark.parametrize("queue", ["heap"])
def test_call_soon_runs_after_events_already_due_now(queue):
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append("first"),
                               sim.call_soon(fired.append, "soon")))
    sim.at(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "soon"]


def test_heap_rearm_falls_back_to_cancel_and_reschedule():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    first = timer._handle
    timer.start(4.0)
    assert timer._handle is not first
    assert first.cancelled
    assert timer.expires_at == 4.0
    assert sim.pending_count() == 1
