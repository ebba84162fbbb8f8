"""Execution modes: the axes the differential oracle crosses.

An :class:`ExecMode` names one point in the (worker count ×
snapshot-roundtrip × metrics) space.  Every axis is documented
as digest-neutral; the oracle's job is to catch the day that stops
being true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.core.config import RunProfile

__all__ = ["ExecMode", "default_matrix", "full_matrix"]

#: Metrics sampling interval (seconds) the ``metrics`` axis switches on.
METRICS_INTERVAL_S = 2.0


@dataclass(frozen=True)
class ExecMode:
    """One execution configuration of an otherwise-identical run."""

    #: Worker processes (1 = serial in-process).
    jobs: int = 1
    #: Roundtrip the run through a mid-horizon snapshot capture/restore.
    snapshot: bool = False
    #: Collect periodic metrics during the run.
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")

    @property
    def label(self) -> str:
        """Compact human label, e.g. ``"jobs2+snap"`` (``"base"`` for none)."""
        parts: List[str] = []
        if self.jobs > 1:
            parts.append(f"jobs{self.jobs}")
        if self.snapshot:
            parts.append("snap")
        if self.metrics:
            parts.append("metrics")
        return "+".join(parts) or "base"

    def apply(self, profile: RunProfile) -> RunProfile:
        """The profile with this mode's metrics knob applied.

        The jobs and snapshot axes are *execution* choices, not profile
        knobs — the oracle realizes them when it runs the cell.
        """
        return profile.but(metrics=METRICS_INTERVAL_S if self.metrics else False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "jobs": self.jobs,
            "snapshot": self.snapshot,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecMode":
        return cls(
            jobs=int(payload.get("jobs", 1)),
            snapshot=bool(payload.get("snapshot", False)),
            metrics=bool(payload.get("metrics", False)),
        )


def default_matrix() -> List[ExecMode]:
    """Baseline plus one-axis variants: covers every axis in 4 runs.

    One divergent axis is enough to flag a bug; the full cross product
    is for post-mortem confirmation, not the smoke path.
    """
    return [ExecMode(), ExecMode(jobs=2), ExecMode(snapshot=True),
            ExecMode(metrics=True)]


def full_matrix() -> List[ExecMode]:
    """The full cross product: jobs × snapshot × metrics."""
    return [ExecMode(jobs=jobs, snapshot=snapshot, metrics=metrics)
            for jobs in (1, 2)
            for snapshot in (False, True)
            for metrics in (False, True)]
