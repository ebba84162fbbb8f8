"""Branch-fork: N divergent futures from one warmed-up snapshot.

A fork builds a fresh scenario from (a clone of) the original builder,
restores the snapshot into it, then perturbs exactly the state the
caller names: designated RNG substreams are re-seeded from a
salt-derived :class:`~numpy.random.SeedSequence`, and a restricted set
of *non-physics* profile knobs may be swapped.  Physics knobs (timing,
bitrate, topology, faults) are deliberately rejected — changing them
would make the captured in-flight state (transmissions mid-air, armed
timeouts) physically inconsistent with the world it restores into.
Branch points that vary physics should snapshot before the divergence
is *installed*, i.e. vary the builder and warm-start each variant
separately.
"""

from __future__ import annotations

import copy
import zlib
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.snapshot.registry import SnapshotError
from repro.snapshot.snapshot import Snapshot

__all__ = ["fork", "FORKABLE_KNOBS"]

#: Profile fields a fork may swap at the branch point.  Everything else
#: changes the physics the captured state was produced under.
FORKABLE_KNOBS = frozenset({"trace", "sanitize", "metrics"})

#: Domain-separation constant so fork re-seeds can never collide with
#: RandomStreams' own (seed, crc32(name)) derivation.
_FORK_DOMAIN = 0xF0BB


def fork(snapshot: Snapshot, builder: Any, *, salt: int = 0,
         streams: Sequence[str] = (),
         profile_changes: Optional[Dict[str, Any]] = None) -> Any:
    """Build a scenario branched from ``snapshot`` at its capture point.

    Parameters
    ----------
    snapshot:
        A capture of a scenario built from ``builder`` (or an equivalent
        builder — same topology, protocol, seed and physics profile).
    builder:
        The originating :class:`~repro.topo.builder.ScenarioBuilder`.
        It is shallow-cloned; the original is untouched.
    salt:
        Branch discriminator folded into every re-seed.  Two forks with
        the same salt are byte-identical; different salts diverge on the
        named ``streams``.
    streams:
        RNG substream names (``"traffic:f0"``, ``"mac:B"``,
        ``"fault:gilbert_elliott:main"``, ...) to re-seed at the branch
        point.  Unnamed streams continue their captured sequences.
    profile_changes:
        Optional knob swaps, restricted to :data:`FORKABLE_KNOBS`.
    """
    changes = dict(profile_changes or {})
    bad = sorted(set(changes) - FORKABLE_KNOBS)
    if bad:
        raise SnapshotError(
            f"fork cannot change physics knobs {bad!r}; forkable knobs "
            f"are {sorted(FORKABLE_KNOBS)!r} — vary the builder and "
            "warm-start separately instead")
    clone = copy.copy(builder)
    clone.profile = builder.profile.but(warm_start=None, **changes)
    scenario = clone.build()
    fresh_trace_enabled = scenario.sim.trace.enabled
    snapshot.restore(scenario, clone)
    # The fork's trace knob wins over the captured flag: enabling tracing
    # at the branch point yields a trace that starts at the fork (the
    # warm-up was captured untraced and cannot be invented after the
    # fact).
    scenario.sim.trace.enabled = fresh_trace_enabled
    seed = scenario.sim.streams.seed
    for name in streams:
        key = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=(seed, key, _FORK_DOMAIN, salt))  # repro-lint: allow=REPRO101 (derives the replacement stream)
        fresh = np.random.default_rng(seq)  # repro-lint: allow=REPRO101 (state donor only)
        gen = scenario.sim.streams.get(name)
        gen.bit_generator.state = fresh.bit_generator.state
    scenario.warm_start_info = {
        "forked": True,
        "salt": salt,
        "reseeded": tuple(streams),
        "digest": snapshot.digest,
        "at": snapshot.at,
    }
    return scenario
