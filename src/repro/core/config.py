"""Protocol and run configuration.

Two frozen dataclasses live here:

* :class:`ProtocolConfig` — the MAC design axes the paper explores, so
  each table's two columns differ by exactly one flag:

  =====================  =========================================  =========
  Flag                   Paper section                              Table
  =====================  =========================================  =========
  ``copy_backoff``       backoff copying                            Table 1
  ``backoff``            BEB vs MILD                                Table 2
  ``multi_queue``        multiple stream model                      Table 3
  ``use_ack``            link-layer ACK                             Table 4
  ``use_ds``             data-sending packet                        Table 5
  ``use_rrts``           request-for-RTS                            Table 6
  ``per_destination``    per-destination backoff (App. B.2)         Table 8
  =====================  =========================================  =========

* :class:`RunProfile` — every *run-level* knob that used to sprawl
  across ``ScenarioBuilder.__init__`` keyword arguments (tracing,
  sanitizing, metrics, timing, queue capacity, bitrate, grid parameters,
  fault schedule).  One profile object flows unchanged through
  ``ScenarioBuilder``, ``Experiment.run``/``run_seeds`` and
  ``runner.run_cells``, and :meth:`RunProfile.digest` is what the result
  cache folds into its keys instead of ad-hoc config tuples.

The :func:`active_profile` context manager provides the ambient-profile
hook (mirroring ``verify.runtime.sanitized`` and ``obs.runtime
.collecting``): experiments build their scenarios deep inside driver
code, so the profile cannot always be threaded through as a parameter —
builders constructed without an explicit ``profile=`` pick up the
innermost active one.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Set, Tuple

from repro.obs.runtime import MetricsConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.schedule import FaultSchedule
    from repro.mac.timing import MacTiming


@dataclass(frozen=True)
class ProtocolConfig:
    """Feature flags and constants for the configurable exchange MAC."""

    #: Link-layer ACK after DATA (§3.3.1).
    use_ack: bool = False
    #: §4 extension: acknowledgement style when ``use_ack`` is on.
    #: "immediate" — an ACK frame after every DATA (the paper's MACAW);
    #: "piggyback" — while more packets are queued for the stream, skip the
    #: ACK frame and read the acknowledgement off the *next* exchange's CTS
    #: (the last packet of a burst still gets an immediate ACK).
    ack_variant: str = "immediate"
    #: §4 extension: when ``use_ack`` is off, have a receiver whose CTS drew
    #: no DATA send a NACK so the sender retransmits at media timescales
    #: without per-packet ACK overhead.
    use_nack: bool = False
    #: Data-sending announcement between CTS and DATA (§3.3.2).
    use_ds: bool = False
    #: Receiver-initiated contention (§3.3.3).
    use_rrts: bool = False
    #: Backoff adjustment: "beb" or "mild" (§3.1).
    backoff: str = "beb"
    #: Copy overheard backoff values (§3.1).
    copy_backoff: bool = False
    #: Separate congestion estimates per stream end (§3.4, App. B.2).
    per_destination: bool = False
    #: Per-stream queues with earliest-retry-slot selection (§3.2);
    #: False = one FIFO per station.
    multi_queue: bool = False
    #: Appendix-B-literal overheard-RTS defer (full exchange) instead of the
    #: §3.3.2 semantics (until the CTS slot passes).  See DESIGN.md.
    rts_defer_full_exchange: bool = False
    #: §3.3.2's alternative to the DS packet: sense the carrier before
    #: transmitting an RTS and hold until "one slot time after it detects
    #: no carrier" (essentially CSMA/CA).
    carrier_sense: bool = False
    #: When a defer interrupts a pending contention countdown, draw a fresh
    #: delay at the defer's end (False — the literal Appendix-B WFContend
    #: rule, and the default) or resume the interrupted countdown like
    #: 802.11 DCF (True).  Resuming synchronizes backed-off stations to
    #: contention periods so strongly that the paper's capture and
    #: starvation dynamics (Tables 1, 6, 7) cannot form; the redraw rule
    #: reproduces them.
    defer_resume: bool = False
    #: Fraction of a slot of uniform random phase added to every contention
    #: delay.  Stations have no shared slot clock: two draws landing within
    #: one slot of each other partially overlap and collide, which is what
    #: makes low-backoff contention wars expensive (and BEB's reset-to-
    #: minimum costly, §3.1).  Set to 0 for perfectly slot-synchronized
    #: stations (an idealization).
    contention_jitter: float = 1.0

    #: Contention bounds, in slots (§3: BO_min = 2, BO_max = 64).
    bo_min: float = 2.0
    bo_max: float = 64.0
    #: How long (in slots, from the end of the RTS) a sender waits before
    #: declaring the exchange failed.  None uses the physical minimum from
    #: MacTiming (CTS airtime + turnaround + margin ≈ 3 slots).  The
    #: default of 8 reflects the conservative failure detection the paper's
    #: contention throughput implies — with the 3-slot minimum, contention
    #: wars resolve so cheaply that BEB's reset-to-minimum beats MILD,
    #: inverting Table 2.  The failure-detection ablation sweeps this axis;
    #: see EXPERIMENTS.md.
    cts_timeout_slots: Optional[float] = 8.0
    #: Additive penalty, in slots, per retry in the B.2 inference rules.
    alpha: float = 2.0
    #: Attempts per packet before the MAC gives up (App. B "we allow a
    #: certain number of retries ... before discarding the packet").
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.backoff not in ("beb", "mild"):
            raise ValueError(f"unknown backoff algorithm {self.backoff!r}")
        if self.ack_variant not in ("immediate", "piggyback"):
            raise ValueError(f"unknown ack variant {self.ack_variant!r}")
        if self.use_nack and self.use_ack:
            raise ValueError("NACKs replace ACKs; enable one or the other")
        if not 1 <= self.bo_min <= self.bo_max:
            raise ValueError(
                f"need 1 <= bo_min <= bo_max, got {self.bo_min!r}, {self.bo_max!r}"
            )
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if not 0.0 <= self.contention_jitter <= 1.0:
            raise ValueError(
                f"contention_jitter must be in [0, 1], got {self.contention_jitter!r}"
            )

    def but(self, **changes: object) -> "ProtocolConfig":
        """A copy with the given fields replaced (for ablations)."""
        return replace(self, **changes)


#: Appendix A's MACA: RTS-CTS-DATA, BEB, one queue, one counter, no copying.
MACA_CONFIG = ProtocolConfig()

#: The full MACAW protocol of Appendix B.
MACAW_CONFIG = ProtocolConfig(
    use_ack=True,
    use_ds=True,
    use_rrts=True,
    backoff="mild",
    copy_backoff=True,
    per_destination=True,
    multi_queue=True,
)


def macaw_config(**changes: object) -> ProtocolConfig:
    """The full MACAW configuration, optionally with overrides."""
    return MACAW_CONFIG.but(**changes) if changes else MACAW_CONFIG


def maca_config(**changes: object) -> ProtocolConfig:
    """The Appendix A MACA configuration, optionally with overrides."""
    return MACA_CONFIG.but(**changes) if changes else MACA_CONFIG


# --------------------------------------------------------------------------
# Run profiles: the consolidated run-level configuration surface.
# --------------------------------------------------------------------------

def _normalize_grid_kwargs(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize grid-medium kwargs to a sorted, hashable item tuple."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)  # already an item sequence
    out = []
    for item in items:
        key, val = item
        if not isinstance(key, str):
            raise TypeError(f"grid_kwargs keys must be strings, got {key!r}")
        if isinstance(val, list):
            val = tuple(val)
        out.append((key, val))
    return tuple(sorted(out))


def _normalize_metrics(value: Any) -> Any:
    """Canonicalize a ``metrics`` knob to None / False / MetricsConfig.

    ``None`` defers to the ambient switch at build time, ``False`` forces
    metrics off, a :class:`~repro.obs.runtime.MetricsConfig` turns them
    on; ``True`` and bare numbers are sugar for a config.
    """
    if value is None or value is False:
        return value
    if value is True:
        return MetricsConfig()
    if isinstance(value, MetricsConfig):
        return value
    if isinstance(value, (int, float)):
        return MetricsConfig(interval=float(value))
    raise TypeError(
        f"metrics expects None/bool/seconds/MetricsConfig, got {value!r}"
    )


@dataclass(frozen=True)
class WarmStart:
    """Warm-start directive: branch runs from a snapshot store.

    Lives here (not in :mod:`repro.snapshot`) so the core profile can
    carry it without a layering inversion; the snapshot subsystem reads
    it, the profile only digests it.  ``store`` names a directory of
    keyed ``*.snap`` files; ``at`` is the warm-up horizon the snapshot
    is taken at; ``digest`` optionally pins the store's content hash
    (:func:`repro.snapshot.warmstart.store_digest`) so cache keys track
    snapshot contents, not just the intent to warm-start.
    """

    #: Simulated time the warm-up snapshot is captured at.
    at: float
    #: Directory holding (or receiving) the keyed snapshot files.
    store: str
    #: Optional content digest over the store's snapshots.
    digest: Optional[str] = None

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ValueError(f"warm-start time must be > 0, got {self.at!r}")


@dataclass(frozen=True)
class RunProfile:
    """Every run-level knob of a scenario, as one immutable value.

    The single configuration object accepted by
    :class:`~repro.topo.builder.ScenarioBuilder` (``profile=``),
    :meth:`Experiment.run`/:meth:`Experiment.run_seeds` and
    :func:`repro.runner.run_cells`.  Seed, medium kind, protocol and
    :class:`ProtocolConfig` stay separate — they are the *identity* of an
    experiment variant, while the profile is how a run is executed and
    observed (plus which faults are injected into it).

    Fields are normalized on construction so equal configurations compare
    (and hash) equal regardless of spelling: ``metrics=2`` becomes a
    :class:`MetricsConfig`, ``grid_kwargs`` dicts become sorted item
    tuples, and an *empty* fault schedule becomes ``None`` — which is
    what makes an empty schedule digest-identical to no schedule at all.
    """

    #: Channel rate (§3: 256 kbps for PARC's radio).
    bitrate_bps: float = 256_000.0
    #: MAC queue bound per stream (None = unbounded).
    queue_capacity: Optional[int] = 64
    #: Explicit :class:`~repro.mac.timing.MacTiming`; None derives one
    #: from ``bitrate_bps``.
    timing: Optional["MacTiming"] = None
    #: Extra :class:`~repro.phy.grid_medium.GridMedium` constructor
    #: kwargs; accepts a mapping, stored as a sorted item tuple.
    grid_kwargs: Any = None
    #: Record a full protocol trace.
    trace: bool = False
    #: Run the conformance sanitizer after every run; None defers to
    #: :func:`repro.verify.runtime.sanitize_enabled`.
    sanitize: Optional[bool] = None
    #: Live instrumentation: None (ambient), False (off), True / seconds /
    #: :class:`~repro.obs.runtime.MetricsConfig` (on).
    metrics: Any = None
    #: Fault schedule to inject (:mod:`repro.fault`); empty normalizes to
    #: None so a no-op schedule cannot perturb digests or cache keys.
    faults: Optional["FaultSchedule"] = None
    #: Warm-start directive (:class:`WarmStart`); None runs cold from
    #: t=0.  Participates in :meth:`digest` so warm-started results can
    #: never collide with cold-run cache entries.
    warm_start: Optional[WarmStart] = None

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate must be positive, got {self.bitrate_bps!r}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1 or None, got {self.queue_capacity!r}"
            )
        object.__setattr__(self, "grid_kwargs", _normalize_grid_kwargs(self.grid_kwargs))
        object.__setattr__(self, "metrics", _normalize_metrics(self.metrics))
        object.__setattr__(self, "trace", bool(self.trace))
        if self.faults is not None:
            from repro.fault.schedule import FaultSchedule

            if not isinstance(self.faults, FaultSchedule):
                raise TypeError(
                    f"faults expects a FaultSchedule or None, got {self.faults!r}"
                )
            if not self.faults:
                object.__setattr__(self, "faults", None)
        if self.warm_start is not None and not isinstance(self.warm_start, WarmStart):
            raise TypeError(
                f"warm_start expects a WarmStart or None, got {self.warm_start!r}"
            )

    # -------------------------------------------------------------- sugar
    def but(self, **changes: Any) -> "RunProfile":
        """A copy with the given fields replaced (normalization re-runs)."""
        return replace(self, **changes)

    def grid_dict(self) -> Dict[str, Any]:
        """The grid-medium kwargs as a plain dict (for ``GridMedium(**...)``)."""
        return dict(self.grid_kwargs)

    @classmethod
    def current(cls) -> "RunProfile":
        """The ambient profile (innermost :func:`active_profile`), else defaults."""
        ambient = ambient_profile()
        return ambient if ambient is not None else cls()

    # ------------------------------------------------------------- digest
    def digest(self) -> str:
        """Stable content hash over every result-affecting knob.

        This is what :func:`repro.runner.run_cells` folds into cache keys.
        ``timing`` serializes through its dataclass fields, ``metrics``
        through the resolved config, and ``faults`` through the
        schedule's canonical dict — an empty schedule was already
        normalized to None, so chaos sweeps and plain sweeps share their
        baseline cache entries.
        """
        if self.timing is None:
            timing_blob: Any = None
        elif is_dataclass(self.timing):
            timing_blob = {
                f.name: getattr(self.timing, f.name)
                for f in fields(self.timing) if f.init
            }
        else:  # pragma: no cover - defensive for duck-typed timings
            timing_blob = repr(self.timing)
        if self.metrics is None or self.metrics is False:
            metrics_blob: Any = bool(self.metrics) if self.metrics is not None else None
        else:
            metrics_blob = {
                "interval": self.metrics.interval,
                "capacity": self.metrics.capacity,
            }
        blob = json.dumps(
            {
                "bitrate_bps": self.bitrate_bps,
                "queue_capacity": self.queue_capacity,
                "timing": timing_blob,
                "grid_kwargs": [list(item) for item in self.grid_kwargs],
                "trace": self.trace,
                "sanitize": self.sanitize,
                "metrics": metrics_blob,
                "faults": None if self.faults is None else self.faults.to_dict(),
                # The store *path* is deliberately not digested: equal
                # keyed builds produce byte-identical snapshots wherever
                # they are stored.  The content digest (when the caller
                # pins one) and the branch time are what distinguish
                # results.
                "warm_start": None if self.warm_start is None else {
                    "at": self.warm_start.at,
                    "digest": self.warm_start.digest,
                },
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Profile of the innermost active :func:`active_profile` block, if any.
_ambient_profile: Optional[RunProfile] = None


def ambient_profile() -> Optional[RunProfile]:
    """The innermost :func:`active_profile` block's profile, or None."""
    return _ambient_profile


@contextmanager
def active_profile(profile: RunProfile) -> Iterator[RunProfile]:
    """Make ``profile`` ambient for a block.

    Builders constructed inside the block without an explicit
    ``profile=`` argument (and without legacy kwargs) adopt it — how one
    CLI-constructed profile reaches every scenario an experiment driver
    builds, serially or inside pool workers.
    """
    global _ambient_profile
    if not isinstance(profile, RunProfile):
        raise TypeError(f"active_profile expects a RunProfile, got {profile!r}")
    previous = _ambient_profile
    _ambient_profile = profile
    try:
        yield profile
    finally:
        _ambient_profile = previous


# ------------------------------------------------------------ deprecation
#: Legacy-kwarg warnings already emitted this process (warn once each).
_warned_kwargs: Set[str] = set()


def warn_deprecated_kwarg(owner: str, name: str) -> None:
    """Emit one DeprecationWarning per (owner, kwarg) per process.

    The legacy keyword surface keeps working identically — the warning
    only points callers at the consolidated :class:`RunProfile`.
    """
    key = f"{owner}.{name}"
    if key in _warned_kwargs:
        return
    _warned_kwargs.add(key)
    warnings.warn(
        f"{owner}({name}=...) is deprecated; pass "
        f"profile=RunProfile({name}=...) instead "
        f"(RunProfile is re-exported by the repro.api facade)",
        DeprecationWarning,
        stacklevel=3,
    )


def reset_deprecation_warnings() -> None:
    """Forget which legacy kwargs warned (test hook for warn-once checks)."""
    _warned_kwargs.clear()
