"""Timer semantics: restart, stop, extend."""

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer


def make(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now), name="t")
    return timer, fired


def test_timer_fires_after_delay():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timer_stop_prevents_firing():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(2.0)
    assert timer.stop()
    sim.run()
    assert fired == []
    assert not timer.running


def test_stop_idle_timer_returns_false():
    sim = Simulator()
    timer, _ = make(sim)
    assert not timer.stop()


def test_restart_cancels_previous_arming():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(1.0)
    timer.start(3.0)
    assert sim.pending_count() == 1
    sim.run()
    assert fired == [3.0]


def test_restart_after_fire_works():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(1.0)
    sim.run(until=1.5)
    timer.start(1.0)
    sim.run(until=5.0)
    assert fired == [1.0, 2.5]


def test_expires_at_reports_absolute_time():
    sim = Simulator()
    timer, _ = make(sim)
    timer.start(4.0)
    assert timer.expires_at == 4.0
    timer.stop()
    assert timer.expires_at is None


def test_start_at_absolute():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start_at(7.0)
    sim.run()
    assert fired == [7.0]


def test_extend_to_pushes_out_only_later():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start_at(5.0)
    timer.extend_to(3.0)  # earlier: no effect
    assert timer.expires_at == 5.0
    timer.extend_to(9.0)  # later: extends
    assert timer.expires_at == 9.0
    sim.run()
    assert fired == [9.0]


def test_extend_to_arms_idle_timer():
    sim = Simulator()
    timer, fired = make(sim)
    timer.extend_to(2.0)
    assert timer.running
    sim.run()
    assert fired == [2.0]


def test_extend_to_in_past_fires_now():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    timer, fired = make(sim)
    timer.extend_to(1.0)  # past: clamps to now
    sim.run(until=6.0)
    assert fired == [5.0]


def test_running_flag_lifecycle():
    sim = Simulator()
    timer, _ = make(sim)
    assert not timer.running
    timer.start(1.0)
    assert timer.running
    sim.run()
    assert not timer.running
