"""Capture and overlay of live simulator state.

The snapshot strategy is **overlay-on-rebuild**: a restore target is a
*fresh* scenario built from an equivalent
:class:`~repro.topo.builder.ScenarioBuilder` (same topology, protocol,
profile and seed).  Restoring then means

1. overlay each registered component's instance ``__dict__`` with the
   captured attributes (identity-preserving: the target's objects stay
   in place, only their state changes),
2. rebuild the kernel's heap from the captured live entries, which keep
   their ``(time, priority, seq)`` keys — delivery order derives entirely
   from those keys,
3. rewind the process-global sequence counters (event ``seq``, packet
   ``uid``) to their captured watermarks,
4. overwrite every RNG substream's bit-generator state,
5. run the post-overlay fix-ups: clear the medium's audibility caches
   and reset metrics probes' dwell anchors.

Step 3 makes restore a process-global operation: exactly one restored
simulator can be live at a time (a second concurrent simulator would
draw colliding ``seq`` values).  Capture, by contrast, is a strict
no-op on the running simulator — counters are read with a
consume-then-reseed trick and the heap is inspected read-only — so
capture-then-continue fires the exact event sequence an uninterrupted
run does.

**Deliberately excluded from capture** (fresh wiring is kept instead):
mac-level observer callbacks (``probe``, ``on_deliver``, ``on_drop``,
``on_sent``), recorder/injector notification hooks, the kernel's
observer, medium audibility caches (pure functions of restored links),
and the metrics sampler's ring buffers (only its position round-trips —
a warm-started run's time series begins at the branch point).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Tuple

from repro.core import streams as core_streams
from repro.sim import events as events_mod
from repro.snapshot.registry import SnapshotError, SnapshotRegistry

__all__ = ["capture_state", "restore_state", "scenario_policies",
           "FULL", "INCLUDE"]

#: Capture everything in ``vars(obj)`` minus the listed fields.
FULL = "full"
#: Capture only the listed fields.
INCLUDE = "include"

#: token -> (mode, fields)
Policy = Tuple[str, Tuple[str, ...]]

_MAC_EXCLUDE = ("probe", "on_deliver", "on_drop", "on_sent")
_MEDIUM_EXCLUDE = ("_audible_cache", "_audible_from", "_power_cache")
_SCENARIO_EXCLUDE = ("metrics", "conformance", "warm_start_info",
                     "report_digest")


def scenario_policies(scenario: Any,
                      builder: Any = None) -> Dict[str, Policy]:
    """The canonical component-capture map for a built scenario.

    Must produce identical token sets on the capture and restore sides;
    every key is derived from builder-assigned names.
    """
    policies: Dict[str, Policy] = {
        "trace": (FULL, ()),
        "medium": (FULL, _MEDIUM_EXCLUDE),
        "recorder": (FULL, ("on_record",)),
        "scenario": (FULL, _SCENARIO_EXCLUDE),
    }
    for name, station in scenario.stations.items():
        policies[f"station:{name}"] = (FULL, ())
        policies[f"mac:{name}"] = (FULL, _MAC_EXCLUDE)
        if getattr(station, "dispatcher", None) is not None:
            policies[f"dispatcher:{name}"] = (FULL, ())
    for stream_id, stream in scenario.streams.items():
        policies[f"stream:{stream_id}"] = (FULL, ())
        if getattr(stream, "source", None) is not None:
            policies[f"source:{stream_id}"] = (FULL, ())
    if scenario.fault_injector is not None:
        policies["injector"] = (FULL, ("on_recovery",))
    metrics = getattr(scenario, "metrics", None)
    if metrics is not None and getattr(metrics, "sampler", None) is not None:
        policies["sampler"] = (INCLUDE, ("_base", "_ticks", "samples_taken"))
    if builder is not None:
        for index in range(len(getattr(builder, "_noise", ()))):
            policies[f"noise:{index}"] = (FULL, ())
    return policies


# ------------------------------------------------------------------ capture
def _consume_then_reseed(module: Any, attr: str) -> int:
    """Read a module-global ``itertools.count`` without perturbing it.

    ``next()`` is the only read a count supports; re-seeding a fresh
    count at the consumed value makes the pair a net no-op, so a
    captured run continues exactly as an uncaptured one would.
    """
    current = next(getattr(module, attr))
    setattr(module, attr, itertools.count(current))
    return current


def capture_state(sim: Any, registry: SnapshotRegistry,
                  policies: Dict[str, Policy]) -> Dict[str, Any]:
    """Snapshot the simulator into a picklable payload dict.

    Strictly read-only with respect to future behavior: the heap is
    copied (live entries, sorted) and the global counters are read via
    the consume-then-reseed trick.
    """
    if sim._running:
        raise SnapshotError("cannot capture while the kernel is "
                            "dispatching; capture between run() calls "
                            "or from a scheduled event boundary")
    # A new sorted list: the heap itself (and its invariant) is untouched.
    entries = sorted(entry for entry in sim._heap if not entry[3]._cancelled)
    rng_states = {
        name: sim.streams._streams[name].bit_generator.state
        for name in sorted(sim.streams._streams)
    }
    components: Dict[str, Dict[str, Any]] = {}
    for token in sorted(policies):
        mode, fields = policies[token]
        obj = registry.resolve(token)
        # Sorted keys make the payload canonical: a restored object's
        # attribute insertion order differs from the original's (fresh
        # build order + overlay), and recapture-equals-capture is the
        # fixed point the store digest keys on.
        state = dict(sorted(vars(obj).items()))
        if mode == FULL:
            for field in fields:
                state.pop(field, None)
        else:
            state = {field: state[field] for field in fields
                     if field in state}
        components[token] = state
    return {
        "now": sim._now,
        "events_fired": sim.events_fired,
        "seq": _consume_then_reseed(events_mod, "_sequence"),
        "packet_uid": _consume_then_reseed(core_streams, "_packet_counter"),
        "entries": entries,
        "rng": {"seed": sim.streams.seed, "states": rng_states},
        "components": components,
    }


# ------------------------------------------------------------------ restore
def restore_state(sim: Any, registry: SnapshotRegistry,
                  payload: Dict[str, Any],
                  policies: Dict[str, Policy]) -> None:
    """Overlay a captured payload onto a freshly built target."""
    if sim._running:
        raise SnapshotError("cannot restore into a running kernel")
    captured = payload["components"]
    missing = sorted(set(policies) - set(captured))
    extra = sorted(set(captured) - set(policies))
    if missing or extra:
        raise SnapshotError(
            "snapshot and restore target disagree on components "
            f"(missing={missing!r}, extra={extra!r}) — the target must "
            "be built from an equivalent builder")

    # 1. Component overlay.  For FULL components the captured dict *is*
    # the state: attributes the fresh build grew that the capture lacks
    # (lazily created fields) are removed, excluded fields keep their
    # fresh wiring.
    for token in sorted(policies):
        mode, fields = policies[token]
        obj = registry.resolve(token)
        state = captured[token]
        if mode == FULL:
            for key in [k for k in vars(obj)
                        if k not in state and k not in fields]:
                delattr(obj, key)
            vars(obj).update(state)
        else:
            for field, value in state.items():
                setattr(obj, field, value)

    # 2. Kernel: the captured entries, sorted, already form a valid heap.
    # The fresh build's heap (its now-superseded events) is dropped
    # wholesale.
    sim._heap = list(payload["entries"])
    sim._live = len(sim._heap)
    sim._free = []
    sim._now = payload["now"]  # repro-lint: allow=REPRO104 (clock restore, not a callback)
    sim.events_fired = payload["events_fired"]
    sim._running = False
    sim._stopped = False

    # 3. Process-global counters rewind to the captured watermarks.
    # This is what makes restore one-live-simulator-per-process.
    events_mod._sequence = itertools.count(payload["seq"])
    core_streams._packet_counter = itertools.count(payload["packet_uid"])

    # 4. RNG substreams.
    streams = sim.streams
    for name, state in payload["rng"]["states"].items():
        streams.get(name).bit_generator.state = state

    # 5. Fix-ups.
    if "medium" in registry:
        medium = registry.resolve("medium")
        medium._audible_cache.clear()
        medium._audible_from.clear()
        if hasattr(medium, "_power_cache"):
            medium._power_cache.clear()
        medium._port_index = {port: index
                              for index, port in enumerate(medium._ports)}
    if "scenario" in registry:
        scenario = registry.resolve("scenario")
        if getattr(scenario, "metrics", None) is not None:
            for station in scenario.stations.values():
                probe = getattr(station.mac, "probe", None)
                if probe is not None:
                    probe._entered = sim._now

