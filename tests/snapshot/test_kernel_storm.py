"""Randomized kernel-storm round-trips on bare simulators.

A scripted storm of schedule/cancel/rearm churn (pooled handles) is
captured at a mid-run boundary via the bare-kernel
API (:meth:`Snapshot.capture_sim` with a hand-built registry), restored
into a fresh simulator, and the remaining firing log compared against an
uninterrupted run — exercising handle pooling, compaction counters and
seq preservation without any scenario scaffolding.
"""

from functools import partial

import numpy as np
import pytest

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from repro.snapshot import Snapshot, SnapshotRegistry
from repro.snapshot.state import FULL

HORIZON = 60.0
TIMERS = 25
ROUNDS = 30


class StormRecorder:
    """Accumulates (time, tag) firing events — the comparison artifact."""

    def __init__(self):
        self.log = []


class StormDriver:
    """Deterministic churn: every step starts/stops/extends scripted
    timers and schedules scripted one-shot events, driven entirely by
    the pre-generated ``script`` so two drivers with equal scripts
    produce byte-equal behavior.
    """

    def __init__(self, sim, recorder, script):
        self.sim = sim
        self.recorder = recorder
        self.script = script
        self.step_index = 0
        # partial(bound method, int) pickles: the codec resolves the
        # inner bound method as a ("method", token, name) descriptor.
        self.timers = [Timer(sim, partial(self.expire, i), name=f"t{i}")
                       for i in range(TIMERS)]

    def expire(self, index):
        self.recorder.log.append((self.sim.now, f"timer:{index}"))

    def oneshot(self, tag):
        self.recorder.log.append((self.sim.now, f"event:{tag}"))

    def churn(self, remaining):
        ops = self.script[self.step_index % len(self.script)]
        self.step_index += 1
        for op, arg, value in ops:
            if op == "start":
                self.timers[arg].start(value)
            elif op == "stop":
                self.timers[arg].stop()
            elif op == "extend":
                self.timers[arg].extend_to(self.sim.now + value)
            elif op == "oneshot":
                self.sim.schedule(value, self.oneshot, arg)
        if remaining:
            self.sim.schedule(0.7, self.churn, remaining - 1)


def make_script(seed):
    rng = np.random.default_rng(seed)
    script = []
    for _ in range(ROUNDS):
        ops = []
        for _ in range(int(rng.integers(3, 9))):
            kind = ["start", "stop", "extend", "oneshot"][
                int(rng.integers(0, 4))]
            index = int(rng.integers(0, TIMERS))
            value = float(np.round(rng.uniform(0.1, 9.0), 6))
            ops.append((kind, index if kind != "oneshot"
                        else f"s{index}", value))
        script.append(ops)
    return script


def make_storm(seed):
    sim = Simulator(seed=seed)
    recorder = StormRecorder()
    driver = StormDriver(sim, recorder, make_script(seed))
    sim.schedule(0.1, driver.churn, ROUNDS - 1)
    return sim, driver, recorder


def storm_registry(sim, driver, recorder):
    registry = SnapshotRegistry()
    registry.register("sim", sim)
    registry.register("driver", driver)
    registry.register("recorder", recorder)
    registry.bind_streams(sim.streams)
    return registry


POLICIES = {"driver": (FULL, ()), "recorder": (FULL, ())}


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_storm_roundtrip(seed):
    straight_sim, _, straight_rec = make_storm(seed)
    straight_sim.run(until=HORIZON)
    reference = (straight_sim.events_fired, straight_rec.log)
    assert straight_rec.log, "storm produced no events; test is vacuous"

    # Capture at a script-derived mid-run boundary (different per seed).
    capture_at = 5.0 + (seed % 7) * 2.5
    halted_sim, halted_driver, halted_rec = make_storm(seed)
    halted_sim.run(until=capture_at)
    snap = Snapshot.capture_sim(
        halted_sim,
        storm_registry(halted_sim, halted_driver, halted_rec),
        POLICIES,
    )

    fresh_sim, fresh_driver, fresh_rec = make_storm(seed)
    snap.restore_sim(
        fresh_sim,
        storm_registry(fresh_sim, fresh_driver, fresh_rec),
        POLICIES,
    )
    assert fresh_sim.now == capture_at
    assert fresh_rec.log == halted_rec.log  # log up to the branch restored
    fresh_sim.run(until=HORIZON)
    assert (fresh_sim.events_fired, fresh_rec.log) == reference


def test_storm_pending_order_survives_restore():
    """The remaining (time, priority, seq) entry order is preserved."""
    sim, driver, rec = make_storm(7)
    sim.run(until=10.0)
    pending = sorted(entry[:3] for entry in sim._heap
                     if not entry[3].cancelled)
    assert pending, "no pending events at the capture point"
    snap = Snapshot.capture_sim(sim, storm_registry(sim, driver, rec),
                                POLICIES)

    sim2, driver2, rec2 = make_storm(7)
    snap.restore_sim(sim2, storm_registry(sim2, driver2, rec2), POLICIES)
    assert [entry[:3] for entry in sim2._heap] == pending
