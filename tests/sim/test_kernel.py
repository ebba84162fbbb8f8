"""Kernel scheduling semantics."""

import pytest

from repro.sim.kernel import COMPACT_MIN_SIZE, SimulationError, Simulator
from repro.sim.timers import Timer


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.schedule(4.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5, 4.25]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_priority_overrides_scheduling_order_at_ties():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "normal")
    sim.at(1.0, fired.append, "early", priority=-1)
    sim.run()
    assert fired == ["early", "normal"]


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.schedule(5.0001, fired.append, "past")
    sim.run(until=5.0)
    assert fired == ["edge"]
    assert sim.now == 5.0


def test_run_until_advances_clock_past_queue_exhaustion():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_consecutive_runs_continue():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(7.0, fired.append, 7)
    sim.run(until=5.0)
    assert fired == [1]
    sim.run(until=10.0)
    assert fired == [1, 7]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    assert handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_twice_returns_false():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel()
    assert not handle.cancel()


def test_cancel_after_fire_returns_false():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert handle.fired
    assert not handle.cancel()


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if sim.now < 3.0:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_call_soon_runs_at_current_instant_after_pending():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.call_soon(fired.append, "soon")

    sim.at(1.0, first)
    sim.at(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "soon"]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, lambda: (fired.append(2), sim.stop()))
    sim.schedule(3.0, fired.append, 3)
    sim.run()
    assert fired == [1, 2]
    assert sim.peek() == 3.0


def test_step_fires_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


def test_peek_skips_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek() == 2.0


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_count() == 1
    assert keep.pending


def test_events_fired_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_fired == 4


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_pending_count_is_live_counter_not_heap_walk():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    assert sim.pending_count() == 100
    for handle in handles[::2]:
        handle.cancel()
    assert sim.pending_count() == 50
    sim.run(until=10.0)  # fires the 5 surviving events at t=2,4,6,8,10
    assert sim.pending_count() == 50 - 5
    assert len(sim._heap) >= sim.pending_count()


def test_mass_cancel_compacts_heap():
    sim = Simulator()
    keep = sim.schedule(2000.0, lambda: None)
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(2000)]
    for handle in handles:
        handle.cancel()
    # Cancelled entries dominate a large queue, so compaction must sweep
    # them out; the structure stays bounded near the compaction threshold
    # instead of dragging 2000 dead entries through every sift.
    assert sim.pending_count() == 1
    assert len(sim._heap) <= COMPACT_MIN_SIZE + 1
    sim.run()
    assert sim.now == 2000.0
    assert keep.fired


def test_compaction_preserves_firing_order():
    sim = Simulator()
    fired = []
    survivors = []
    for i in range(1500):
        handle = sim.schedule(float(i + 1), fired.append, i)
        if i % 3:
            handle.cancel()
        else:
            survivors.append(i)
    sim.run()
    assert fired == survivors


def test_cancel_inside_callback_keeps_counter_consistent():
    sim = Simulator()
    victim = sim.schedule(2.0, lambda: None)
    sim.schedule(1.0, victim.cancel)
    sim.run()
    assert sim.pending_count() == 0
    assert sim.events_fired == 1


def test_priority_and_fifo_ordering_at_one_instant():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "b")
    sim.at(1.0, fired.append, "late", priority=5)
    sim.at(1.0, fired.append, "early", priority=-1)
    sim.at(1.0, fired.append, "c")
    sim.run()
    assert fired == ["early", "b", "c", "late"]


# ------------------------------------------------- dead-entry accounting

def test_step_driven_runs_compact_too():
    # step() and peek() pop cancelled heads through the same accounting
    # as the run loop, so they keep the same compaction pressure.
    sim = Simulator()
    keep = sim.schedule(2000.0, lambda: None)
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(2000)]
    for handle in handles:
        handle.cancel()
    assert sim.pending_count() == 1
    assert len(sim._heap) <= COMPACT_MIN_SIZE + 1
    assert sim.peek() == 2000.0  # peeking past dead heads keeps counts sane
    assert sim.step()
    assert keep.fired
    assert not sim.step()
    assert len(sim._heap) == 0


def test_peek_purges_dead_heads_without_losing_live_entries():
    sim = Simulator()
    dead = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    dead.cancel()
    assert sim.peek() == 2.0
    assert sim.pending_count() == 1
    sim.run()
    assert sim.events_fired == 1


def test_infinite_time_sentinel_stays_queued():
    sim = Simulator()
    fired = []
    sentinel = sim.at(float("inf"), fired.append, "never")
    sim.at(1.0, fired.append, "real")
    sim.run(until=100.0)
    assert fired == ["real"]
    assert sim.pending_count() == 1
    assert sim.peek() == float("inf")
    sentinel.cancel()
    assert sim.pending_count() == 0


def test_step_inside_run_is_rejected():
    # run() batches events_fired in a local; a re-entrant step()'s direct
    # increment would be clobbered by the write-back, so it must raise.
    sim = Simulator()
    caught = []

    def probe():
        with pytest.raises(SimulationError):
            sim.step()
        caught.append(True)

    sim.schedule(1.0, probe)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert caught == [True]
    assert sim.events_fired == 2


# ------------------------------------------------------------------ pooling

def test_timer_handles_are_recycled_through_the_free_list():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    sim.run(until=1.0)
    assert len(sim._free) == 1
    recycled = sim._free[0]
    timer.start(1.0)
    assert timer._handle is recycled
    assert timer._handle.pending
    sim.run(until=5.0)
    assert sim.events_fired == 2


def test_cancelled_pooled_handles_return_to_the_pool_once():
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    for _ in range(5):
        timer.start(1.0)
        timer.stop()
        sim.run(until=sim.now + 2.0)  # purge the dead entry
    assert len(sim._free) <= 1  # the same object cycles; never duplicated
    assert len(set(map(id, sim._free))) == len(sim._free)


def test_plain_events_are_never_pooled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim._free == []

