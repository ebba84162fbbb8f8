"""Shared fixture: a test-only monkeypatch that injects a divergence.

While ``perturb_mode`` is active, every event that a simulator with a
clock observer attached schedules past :data:`PERTURB_TRIGGER_S` lands
:data:`PERTURB_EPS_S` late.  Only the metrics sampler attaches a clock
observer, so of the execution modes exactly ``ExecMode(metrics=True)``
is perturbed when it runs in-process.  The perturbation is deterministic
(a pure function of the scheduling sequence) and horizon-prefix-stable
(it depends only on the executed prefix, never on the total horizon),
so a clean mode and the perturbed one share a byte-identical record
prefix and then part ways at the first post-trigger event — exactly the
synthetic divergence the bisector must localize.
"""

from __future__ import annotations

import pytest

from repro.sim.kernel import Simulator
from repro.verify.diff.modes import ExecMode

#: Events scheduled strictly after this simulated time get delayed.
PERTURB_TRIGGER_S = 3.0

#: How late each post-trigger event lands.
PERTURB_EPS_S = 0.25


@pytest.fixture
def perturb_mode(monkeypatch) -> ExecMode:
    """Delay observed simulators' post-trigger events; returns the mode."""
    at, schedule = Simulator.at, Simulator.schedule

    def late_at(self, time, callback, *args, priority=0, pooled=False):
        if self._observer is not None and time > PERTURB_TRIGGER_S:
            time += PERTURB_EPS_S
        return at(self, time, callback, *args, priority=priority, pooled=pooled)

    def late_schedule(self, delay, callback, *args, pooled=False):
        if self._observer is not None and self.now + delay > PERTURB_TRIGGER_S:
            delay += PERTURB_EPS_S
        return schedule(self, delay, callback, *args, pooled=pooled)

    monkeypatch.setattr(Simulator, "at", late_at)
    monkeypatch.setattr(Simulator, "schedule", late_schedule)
    return ExecMode(metrics=True)
