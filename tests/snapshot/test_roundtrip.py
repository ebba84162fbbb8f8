"""The restore invariant: save at T, restore, run on == never stopped.

The non-negotiable contract of ``repro.snapshot``: a scenario captured
mid-run and restored into a fresh build from an equivalent builder must
finish with byte-identical ``events_fired`` and ``Trace.digest()`` to an
uninterrupted run — across protocols and fault schedules, for multiple
seeds.
"""

import pytest

from repro.fault.presets import get_preset
from repro.snapshot import Snapshot, SnapshotError
from repro.topo.figures import fig2_two_pads

HORIZON = 30.0
CAPTURE_AT = 12.0
SEEDS = (0, 1, 2)


def build(protocol, faulted, seed):
    builder = fig2_two_pads(protocol=protocol, seed=seed)
    builder.trace = True
    if faulted:
        builder.faults = get_preset("flaky-links")
    return builder


def finish(scenario):
    scenario.sim.run(until=HORIZON)
    return scenario.sim.events_fired, scenario.sim.trace.digest()


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("protocol", ["macaw", "maca", "csma"])
def test_restore_equals_straight_through(protocol, faulted):
    for seed in SEEDS:
        reference = finish(build(protocol, faulted, seed).build())
        source = build(protocol, faulted, seed)
        halfway = source.build()
        halfway.sim.run(until=CAPTURE_AT)
        snap = Snapshot.capture(halfway, source)

        target = build(protocol, faulted, seed)
        fresh = target.build()
        snap.restore(fresh, target)
        assert fresh.sim._now == CAPTURE_AT
        assert finish(fresh) == reference, (
            f"{protocol} seed={seed} faulted={faulted}: restored run diverged"
        )


def test_capture_is_a_noop_on_the_running_scenario():
    """Capture-then-continue fires the exact uninterrupted sequence."""
    reference = finish(build("macaw", False, 0).build())
    builder = build("macaw", False, 0)
    scenario = builder.build()
    scenario.sim.run(until=CAPTURE_AT)
    Snapshot.capture(scenario, builder)
    assert finish(scenario) == reference


def test_recapture_after_restore_hashes_identically():
    """Restore rewinds the global counters, so a recapture is bytewise
    the original snapshot — the fixed point the store digest keys on.
    (Two *cold* captures in one process differ: the event-seq and
    packet-uid watermarks are process-global and advance monotonically.)
    """
    builder = build("macaw", False, 1)
    scenario = builder.build()
    scenario.sim.run(until=CAPTURE_AT)
    first = Snapshot.capture(scenario, builder)

    target = build("macaw", False, 1)
    fresh = target.build()
    first.restore(fresh, target)
    second = Snapshot.capture(fresh, target)
    assert second.digest == first.digest


def test_capture_rejects_running_kernel():
    builder = build("macaw", False, 0)
    scenario = builder.build()
    boom = {}

    def mid_run():
        try:
            Snapshot.capture(scenario, builder)
        except SnapshotError as exc:
            boom["error"] = exc

    scenario.sim.schedule(1.0, mid_run)
    scenario.sim.run(until=2.0)
    assert "dispatching" in str(boom["error"])
