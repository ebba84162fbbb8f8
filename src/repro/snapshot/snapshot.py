"""The :class:`Snapshot` container: capture, restore, save, load.

File format (``*.snap``)::

    MAGIC (8 bytes)  |  header length (u32 LE)  |  JSON header  |  blob

The JSON header carries the format version, the capture metadata
(backend, seed, clock, events fired) and the SHA-256 of the blob; load
verifies magic, version and digest before touching the pickle.  The
builder is *not* embedded — a snapshot restores only into a scenario
built from an equivalent :class:`~repro.topo.builder.ScenarioBuilder`,
which is what the warm-start store key guarantees (and what
:func:`~repro.snapshot.fork.fork` arranges explicitly).

Versioning policy: ``FORMAT_VERSION`` bumps whenever the payload schema
or the component policy tables change shape; loading a *newer* format
than the running code understands raises.  Older formats have no
migration path — snapshots are cheap to regenerate and the warm-start
key already folds in :func:`~repro.runner.cache.code_version`, so stale
files simply miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.snapshot import codec
from repro.snapshot.registry import (SnapshotError, SnapshotRegistry,
                                     registry_for_scenario)
from repro.snapshot.state import (capture_state, restore_state,
                                  scenario_policies)

__all__ = ["Snapshot", "FORMAT_VERSION", "MAGIC"]

FORMAT_VERSION = 1
MAGIC = b"MACAWSNP"


class Snapshot:
    """One captured simulator state: metadata + codec blob."""

    def __init__(self, meta: Dict[str, Any], blob: bytes) -> None:
        self.meta = meta
        self.blob = blob

    @property
    def digest(self) -> str:
        """SHA-256 of the blob — deterministic for a deterministic run."""
        return hashlib.sha256(self.blob).hexdigest()

    @property
    def at(self) -> float:
        return float(self.meta["now"])

    # ------------------------------------------------------------ scenarios
    @classmethod
    def capture(cls, scenario: Any, builder: Any = None) -> "Snapshot":
        """Capture a built (possibly mid-run) scenario.

        Pass the ``builder`` that produced the scenario whenever one
        exists: builder-owned noise models and scripted ``at()`` actions
        are then serialized as stable references instead of copies.
        """
        registry = registry_for_scenario(scenario, builder)
        policies = scenario_policies(scenario, builder)
        return cls._capture(scenario.sim, registry, policies)

    def restore(self, scenario: Any, builder: Any = None) -> None:
        """Overlay this snapshot onto a freshly built equivalent scenario."""
        registry = registry_for_scenario(scenario, builder)
        policies = scenario_policies(scenario, builder)
        self._restore(scenario.sim, registry, policies)

    # ------------------------------------------------- bare kernels (tests)
    @classmethod
    def capture_sim(cls, sim: Any, registry: SnapshotRegistry,
                    policies: Optional[Dict[str, Any]] = None) -> "Snapshot":
        """Capture a hand-built simulator (no scenario scaffolding).

        ``registry`` must at minimum register ``"sim"``; ``policies``
        lists extra registered components whose state should round-trip
        (see :func:`~repro.snapshot.state.scenario_policies` for the
        shape).
        """
        return cls._capture(sim, registry, policies or {})

    def restore_sim(self, sim: Any, registry: SnapshotRegistry,
                    policies: Optional[Dict[str, Any]] = None) -> None:
        self._restore(sim, registry, policies or {})

    @classmethod
    def _capture(cls, sim: Any, registry: SnapshotRegistry,
                 policies: Dict[str, Any]) -> "Snapshot":
        payload = capture_state(sim, registry, policies)
        blob = codec.dumps(payload, registry)
        meta = {
            "format": FORMAT_VERSION,
            "seed": payload["rng"]["seed"],
            "now": payload["now"],
            "events_fired": payload["events_fired"],
            "pending": len(payload["entries"]),
        }
        return cls(meta, blob)

    def _restore(self, sim: Any, registry: SnapshotRegistry,
                 policies: Dict[str, Any]) -> None:
        if int(self.meta.get("format", 0)) > FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format {self.meta.get('format')} is newer than "
                f"this code understands (<= {FORMAT_VERSION})")
        payload = codec.loads(self.blob, registry)
        restore_state(sim, registry, payload, policies)

    # -------------------------------------------------------------- file IO
    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write ``MAGIC | header | blob`` to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({**self.meta, "digest": self.digest},
                            sort_keys=True).encode("utf-8")
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<I", len(header)))
                fh.write(header)
                fh.write(self.blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Snapshot":
        path = Path(path)
        raw = path.read_bytes()
        if raw[:len(MAGIC)] != MAGIC:
            raise SnapshotError(f"{path} is not a snapshot file")
        offset = len(MAGIC)
        (header_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        try:
            meta = json.loads(raw[offset:offset + header_len])
        except ValueError:
            raise SnapshotError(f"{path}: corrupt snapshot header") from None
        blob = raw[offset + header_len:]
        expected = meta.pop("digest", None)
        if expected is not None:
            actual = hashlib.sha256(blob).hexdigest()
            if actual != expected:
                raise SnapshotError(
                    f"{path}: blob digest mismatch (file corrupt or "
                    "truncated)")
        if int(meta.get("format", 0)) > FORMAT_VERSION:
            raise SnapshotError(
                f"{path}: snapshot format {meta.get('format')} is newer "
                f"than this code understands (<= {FORMAT_VERSION})")
        return cls(meta, blob)
