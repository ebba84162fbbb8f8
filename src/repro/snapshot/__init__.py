"""Deterministic checkpoint/restore and branch-fork for the simulator.

The subsystem turns one warmed-up simulation into many: capture the
complete simulator state at ``t=T`` (kernel clock + pending events,
every RNG substream, MAC state machines and timers, in-flight
transmissions, flow/TCP state, fault processes, sampler position), save
it as a versioned ``*.snap`` file, and restore it into a freshly built
equivalent scenario such that running to the horizon is
**byte-identical** (``events_fired`` and ``Trace.digest()``) to never
having stopped.

Entry points:

* :class:`Snapshot` — ``capture`` / ``restore`` / ``save`` / ``load``.
* :func:`fork` — branch a snapshot into divergent futures (re-seeded
  substreams, restricted knob swaps).
* :func:`apply_warm_start` — the keyed-store hook
  :meth:`ScenarioBuilder.build` calls when the profile carries a
  :class:`~repro.core.config.WarmStart`; sweeps reach it through
  ``run_cells(warm_start=...)`` or the CLI's ``--warm-start``.

See DESIGN.md §11 for the callback-descriptor registry, the versioning
policy, and the deliberate exclusions.
"""

from repro.snapshot.fork import FORKABLE_KNOBS, fork
from repro.snapshot.registry import (SnapshotError, SnapshotRegistry,
                                     registry_for_scenario)
from repro.snapshot.snapshot import FORMAT_VERSION, MAGIC, Snapshot
from repro.snapshot.state import (capture_state, restore_state,
                                  scenario_policies)
from repro.snapshot.warmstart import apply_warm_start, store_digest, warm_key

__all__ = [
    "FORKABLE_KNOBS",
    "FORMAT_VERSION",
    "MAGIC",
    "Snapshot",
    "SnapshotError",
    "SnapshotRegistry",
    "apply_warm_start",
    "capture_state",
    "fork",
    "registry_for_scenario",
    "restore_state",
    "scenario_policies",
    "store_digest",
    "warm_key",
]
