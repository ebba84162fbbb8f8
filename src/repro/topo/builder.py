"""Declarative scenario construction.

A :class:`ScenarioBuilder` collects the description of an experiment —
medium type, stations, connectivity, traffic streams, noise, scheduled
events — and :meth:`~ScenarioBuilder.build` materializes it into a
:class:`Scenario` ready to :meth:`~Scenario.run`.

Example (the paper's Figure 2)::

    builder = ScenarioBuilder(seed=1, protocol="maca")
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", rate_pps=64)
    builder.udp("P2", "B", rate_pps=64)
    scenario = builder.build().run(500)
    scenario.throughput("P1-B", warmup=50)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import (
    MACA_CONFIG,
    MACAW_CONFIG,
    RunProfile,
    ambient_profile,
    warn_deprecated_kwarg,
)
from repro.core.macaw import MacawMac
from repro.mac.base import BaseMac
from repro.mac.csma import CsmaConfig, CsmaMac
from repro.mac.timing import MacTiming
from repro.net.sink import FlowRecorder
from repro.net.tcp import TcpStream
from repro.net.udp import UdpStream
from repro.phy.graph_medium import GraphMedium
from repro.phy.grid_medium import GridMedium
from repro.phy.medium import Medium
from repro.phy.noise import PacketErrorModel
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.topo.station import Station
from repro.verify.conformance import (
    ConformanceError,
    ConformanceReport,
    check_scenario,
)
from repro.obs.runtime import note_metrics, resolve_metrics
from repro.verify.runtime import (
    digests_enabled,
    note_digest,
    note_report,
    note_trace,
    sanitize_enabled,
    traces_enabled,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.inject import FaultInjector
    from repro.obs.probes import ScenarioMetrics

#: Default warm-up excluded from throughput measurements (§3: "a warmup
#: period of 50 seconds").
DEFAULT_WARMUP_S = 50.0


class Scenario:
    """A materialized experiment: simulator, medium, stations and streams."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        recorder: FlowRecorder,
        sanitize: bool = False,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.recorder = recorder
        self.stations: Dict[str, Station] = {}
        self.streams: Dict[str, Any] = {}
        self.duration: Optional[float] = None
        #: When True, every :meth:`run` replays the trace through the
        #: conformance sanitizer and raises on protocol violations.
        self.sanitize = sanitize
        #: When True (set by the builder while a
        #: :func:`repro.verify.runtime.capturing_digests` block is active),
        #: every :meth:`run` reports the trace digest to the capture sink.
        self.report_digest = False
        #: Like :attr:`report_digest`, but for the full record list
        #: (:func:`repro.verify.runtime.capturing_traces`) — the
        #: differential bisector's event-level view.
        self.report_trace = False
        #: Report from the most recent :meth:`verify` / sanitized run.
        self.conformance: Optional[ConformanceReport] = None
        #: Live metrics handle (:class:`repro.obs.probes.ScenarioMetrics`);
        #: None unless the builder instrumented this scenario.
        self.metrics: Optional["ScenarioMetrics"] = None
        #: Installed fault injector (:mod:`repro.fault`); None unless the
        #: builder's profile carried a non-empty schedule.
        self.fault_injector: Optional["FaultInjector"] = None
        #: Provenance of a warm-started or forked build (store key, snap
        #: digest, branch time); None for a cold build.  Set by
        #: :mod:`repro.snapshot`.
        self.warm_start_info: Optional[Dict[str, Any]] = None

    def station(self, name: str) -> Station:
        return self.stations[name]

    def stream(self, stream_id: str) -> Any:
        return self.streams[stream_id]

    def run(self, duration: float) -> "Scenario":
        """Advance the simulation to ``duration`` seconds and remember it.

        In sanitized mode the recorded trace is then replayed through the
        protocol conformance checker; any violation raises
        :class:`~repro.verify.conformance.ConformanceError`.
        """
        self.sim.run(until=duration)
        self.duration = duration
        if self.report_digest:
            note_digest(self.sim.trace.digest())
        if self.report_trace:
            note_trace(list(self.sim.trace))
        if self.metrics is not None:
            note_metrics(self.metrics.dump())
        if self.sanitize:
            report = self.verify()
            note_report(sum(report.examined.values()), len(report.violations))
            if not report.ok:
                raise ConformanceError(report)
        return self

    def verify(self) -> ConformanceReport:
        """Replay the recorded trace through the conformance sanitizer.

        Requires tracing to have been enabled (``trace=True`` or
        ``sanitize=True`` on the builder); with tracing off the report is
        trivially empty.
        """
        self.conformance = check_scenario(self)
        return self.conformance

    # ------------------------------------------------------------- results
    def throughput(
        self,
        stream_id: str,
        warmup: float = DEFAULT_WARMUP_S,
        end: Optional[float] = None,
    ) -> float:
        """Delivered packets per second for one stream, past warm-up."""
        if end is None:
            if self.duration is None:
                raise RuntimeError("run() the scenario before reading throughput")
            end = self.duration
        return self.recorder.throughput_pps(stream_id, warmup, end)

    def throughputs(
        self, warmup: float = DEFAULT_WARMUP_S, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Throughput of every declared stream, in declaration order."""
        return {
            stream_id: self.throughput(stream_id, warmup, end)
            for stream_id in self.streams
        }


@dataclass
class _StationSpec:
    name: str
    kind: str
    position: Tuple[float, float, float]
    protocol: Optional[str]
    config: Optional[Any]


#: Keyword arguments the builder accepted before :class:`RunProfile`
#: consolidated them; each still works, warning once per process.
_LEGACY_KWARGS = (
    "bitrate_bps", "trace", "grid_kwargs", "queue_capacity",
    "timing", "sanitize", "metrics", "faults",
)


class ScenarioBuilder:
    """Collects an experiment description; ``build()`` wires it together.

    Parameters
    ----------
    seed:
        Master random seed (one integer reproduces the whole run).
    medium:
        ``"graph"`` (explicit connectivity, the figures' textual topology)
        or ``"grid"`` (the paper's cube-grid signal model).
    protocol:
        Default MAC for stations: ``"macaw"``, ``"maca"`` or ``"csma"``.
    config:
        Default protocol configuration (a :class:`ProtocolConfig` for
        macaw/maca, a :class:`CsmaConfig` for csma).
    profile:
        Every run-level knob — bitrate, queue bound, timing, tracing,
        sanitizer, metrics, grid kwargs and the fault schedule — as one
        :class:`~repro.core.config.RunProfile`.  Omitted, the builder
        adopts the ambient profile
        (:func:`~repro.core.config.active_profile`) or plain defaults.

    The pre-profile keyword arguments (``bitrate_bps``, ``trace``,
    ``grid_kwargs``, ``queue_capacity``, ``timing``, ``sanitize``,
    ``metrics``, ``faults``) still work identically — each folds into the
    profile and emits one :class:`DeprecationWarning` per process.  The
    knobs also remain readable/assignable as builder attributes
    (``builder.metrics = 2.0``), backed by the profile.
    """

    def __init__(
        self,
        seed: int = 0,
        medium: str = "graph",
        protocol: str = "macaw",
        config: Optional[Any] = None,
        profile: Optional[RunProfile] = None,
        **legacy: Any,
    ) -> None:
        if medium not in ("graph", "grid"):
            raise ValueError(f"medium must be 'graph' or 'grid', got {medium!r}")
        unknown = set(legacy) - set(_LEGACY_KWARGS)
        if unknown:
            raise TypeError(
                f"ScenarioBuilder() got unexpected keyword argument(s) "
                f"{', '.join(sorted(unknown))}"
            )
        if profile is not None and not isinstance(profile, RunProfile):
            raise TypeError(f"profile expects a RunProfile, got {profile!r}")
        self.seed = seed
        self.medium_kind = medium
        self.protocol = protocol
        self.config = config
        base = profile if profile is not None else ambient_profile()
        self.profile = base if base is not None else RunProfile()
        for name in _LEGACY_KWARGS:
            if name in legacy:
                warn_deprecated_kwarg("ScenarioBuilder", name)
                self.profile = self.profile.but(**{name: legacy[name]})
        self._stations: List[_StationSpec] = []
        self._links: List[Tuple[str, str, bool]] = []
        self._streams: List[Tuple[str, Dict[str, Any]]] = []
        self._noise: List[PacketErrorModel] = []
        self._events: List[Tuple[float, Callable[[Scenario], None]]] = []

    # ------------------------------------------------- profile-backed knobs
    # The legacy attribute surface: reads and writes go through the
    # (immutable) profile so ``builder.metrics = 2.0`` keeps working.
    @property
    def bitrate_bps(self) -> float:
        return self.profile.bitrate_bps

    @bitrate_bps.setter
    def bitrate_bps(self, value: float) -> None:
        self.profile = self.profile.but(bitrate_bps=value)

    @property
    def trace(self) -> bool:
        return self.profile.trace

    @trace.setter
    def trace(self, value: bool) -> None:
        self.profile = self.profile.but(trace=value)

    @property
    def sanitize(self) -> Optional[bool]:
        return self.profile.sanitize

    @sanitize.setter
    def sanitize(self, value: Optional[bool]) -> None:
        self.profile = self.profile.but(sanitize=value)

    @property
    def metrics(self) -> Any:
        return self.profile.metrics

    @metrics.setter
    def metrics(self, value: Any) -> None:
        self.profile = self.profile.but(metrics=value)

    @property
    def grid_kwargs(self) -> Dict[str, Any]:
        return self.profile.grid_dict()

    @grid_kwargs.setter
    def grid_kwargs(self, value: Optional[Dict[str, Any]]) -> None:
        self.profile = self.profile.but(grid_kwargs=value)

    @property
    def queue_capacity(self) -> Optional[int]:
        return self.profile.queue_capacity

    @queue_capacity.setter
    def queue_capacity(self, value: Optional[int]) -> None:
        self.profile = self.profile.but(queue_capacity=value)

    @property
    def timing(self) -> Optional[MacTiming]:
        return self.profile.timing

    @timing.setter
    def timing(self, value: Optional[MacTiming]) -> None:
        self.profile = self.profile.but(timing=value)

    @property
    def faults(self) -> Optional[Any]:
        return self.profile.faults

    @faults.setter
    def faults(self, value: Optional[Any]) -> None:
        self.profile = self.profile.but(faults=value)

    # ------------------------------------------------------------- stations
    def add_station(
        self,
        name: str,
        kind: str,
        position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
        protocol: Optional[str] = None,
        config: Optional[Any] = None,
    ) -> "ScenarioBuilder":
        if any(spec.name == name for spec in self._stations):
            raise ValueError(f"duplicate station {name!r}")
        self._stations.append(_StationSpec(name, kind, position, protocol, config))
        return self

    def add_pad(self, name: str, position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                **kwargs: Any) -> "ScenarioBuilder":
        return self.add_station(name, "pad", position, **kwargs)

    def add_base(self, name: str, position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                 **kwargs: Any) -> "ScenarioBuilder":
        return self.add_station(name, "base", position, **kwargs)

    # ---------------------------------------------------------------- links
    def _require_station(self, name: str) -> None:
        if not any(spec.name == name for spec in self._stations):
            raise ValueError(
                f"unknown station {name!r} in link(); declare it with "
                f"add_pad()/add_base() first"
            )

    def link(self, a: str, b: str, symmetric: bool = True) -> "ScenarioBuilder":
        """Declare that ``a`` and ``b`` are in range (graph medium only).

        Both stations must already be declared — a typo fails here, at the
        declaration site, rather than as a ``KeyError`` deep in
        :meth:`build`.
        """
        self._require_station(a)
        self._require_station(b)
        self._links.append((a, b, symmetric))
        return self

    def clique(self, *names: str) -> "ScenarioBuilder":
        """Declare a set of mutually in-range stations (one cell)."""
        members = list(names)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                self.link(a, b)
        return self

    # -------------------------------------------------------------- traffic
    def udp(
        self,
        src: str,
        dst: str,
        rate_pps: float,
        stream_id: Optional[str] = None,
        **kwargs: Any,
    ) -> str:
        """Declare a UDP stream; returns its id (default ``"src-dst"``)."""
        stream_id = stream_id or f"{src}-{dst}"
        self._streams.append(("udp", dict(src=src, dst=dst, rate_pps=rate_pps,
                                          stream_id=stream_id, **kwargs)))
        return stream_id

    def tcp(
        self,
        src: str,
        dst: str,
        rate_pps: float,
        stream_id: Optional[str] = None,
        **kwargs: Any,
    ) -> str:
        """Declare a TCP stream; returns its id (default ``"src-dst"``)."""
        stream_id = stream_id or f"{src}-{dst}"
        self._streams.append(("tcp", dict(src=src, dst=dst, rate_pps=rate_pps,
                                          stream_id=stream_id, **kwargs)))
        return stream_id

    # ------------------------------------------------------- noise & events
    def noise(self, model: PacketErrorModel) -> "ScenarioBuilder":
        """Attach a packet-error model to the medium."""
        self._noise.append(model)
        return self

    def at(self, time: float, action: Callable[[Scenario], None]) -> "ScenarioBuilder":
        """Schedule ``action(scenario)`` at simulated ``time`` (mobility,
        power changes, reconfiguration)."""
        self._events.append((time, action))
        return self

    def power_off_at(self, name: str, time: float) -> "ScenarioBuilder":
        """Schedule a station power-off (Figure 9)."""
        return self.at(time, lambda scenario: scenario.station(name).power_off())

    # ----------------------------------------------------------------- build
    def _make_mac(
        self, sim: Simulator, medium: Medium, spec: _StationSpec, timing: MacTiming
    ) -> BaseMac:
        protocol = spec.protocol or self.protocol
        config = spec.config if spec.config is not None else self.config
        if protocol == "macaw":
            return MacawMac(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else MACAW_CONFIG,
                timing=timing, queue_capacity=self.queue_capacity,
            )
        if protocol == "maca":
            # Imported here: repro.mac deliberately does not import maca at
            # package level (see repro/mac/__init__.py).
            from repro.mac.maca import MacaMac

            return MacaMac(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else MACA_CONFIG,
                timing=timing, queue_capacity=self.queue_capacity,
            )
        if protocol == "csma":
            return CsmaMac(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else CsmaConfig(),
                timing=timing, queue_capacity=self.queue_capacity,
            )
        if protocol == "polling":
            from repro.mac.polling import (
                PollingBaseMac,
                PollingConfig,
                PollingPadMac,
            )

            cls = PollingBaseMac if spec.kind == "base" else PollingPadMac
            return cls(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else PollingConfig(),
                timing=timing, queue_capacity=self.queue_capacity,
            )
        raise ValueError(f"unknown protocol {protocol!r}")

    def build(self) -> Scenario:
        """Materialize the scenario (idempotent: each call builds afresh)."""
        profile = self.profile
        sanitize = sanitize_enabled(profile.sanitize)
        report_digest = digests_enabled()
        report_trace = traces_enabled()
        sim = Simulator(
            seed=self.seed,
            trace=Trace(
                enabled=profile.trace or sanitize or report_digest or report_trace
            ),
        )
        if self.medium_kind == "graph":
            medium: Medium = GraphMedium(sim, bitrate_bps=profile.bitrate_bps)
        else:
            medium = GridMedium(
                sim, bitrate_bps=profile.bitrate_bps, **profile.grid_dict()
            )
        recorder = FlowRecorder()
        scenario = Scenario(sim, medium, recorder, sanitize=sanitize)
        scenario.report_digest = report_digest
        scenario.report_trace = report_trace
        timing = profile.timing if profile.timing is not None else MacTiming(
            bitrate_bps=profile.bitrate_bps
        )

        for spec in self._stations:
            mac = self._make_mac(sim, medium, spec, timing)
            scenario.stations[spec.name] = Station(spec.name, spec.kind, mac, recorder)

        if self._links and self.medium_kind != "graph":
            raise ValueError("explicit links require the graph medium")
        if isinstance(medium, GraphMedium):
            for a, b, symmetric in self._links:
                medium.set_link(
                    scenario.stations[a].mac, scenario.stations[b].mac, True, symmetric
                )

        for model in self._noise:
            medium.add_noise_model(model)

        # Polling cells: each polling base learns the pads in its range.
        from repro.mac.polling import PollingBaseMac, PollingPadMac

        for station in scenario.stations.values():
            mac = station.mac
            if not isinstance(mac, PollingBaseMac):
                continue
            for other in scenario.stations.values():
                if isinstance(other.mac, PollingPadMac) and medium.in_range(
                    mac, other.mac
                ):
                    mac.register_pad(other.name)

        for kind, params in self._streams:
            src = scenario.stations[params["src"]]
            dst = scenario.stations[params["dst"]]
            stream_id = params["stream_id"]
            extra = {
                k: v for k, v in params.items()
                if k not in ("src", "dst", "stream_id", "rate_pps")
            }
            if kind == "udp":
                stream: Any = UdpStream(
                    sim, src.mac, dst.mac, stream_id, params["rate_pps"], **extra
                )
            else:
                stream = TcpStream(
                    sim, src.dispatcher, dst.dispatcher, stream_id,
                    params["rate_pps"], recorder=recorder, **extra
                )
            scenario.streams[stream_id] = stream

        for time, action in self._events:
            sim.at(time, action, scenario)

        # Faults compile onto the kernel after user events (same build
        # order every run) and before instrumentation, so the probes can
        # bind to the injector's counters.
        if profile.faults is not None:
            from repro.fault.inject import install_faults

            scenario.fault_injector = install_faults(
                scenario, profile.faults, declared_links=tuple(self._links)
            )

        # Instrument last, once every station and stream exists.  The
        # sampler attaches as the kernel's passive observer and the probes
        # only read model state, so an instrumented run fires the same
        # events and produces the same trace digest as a bare one.
        metrics_config = resolve_metrics(profile.metrics)
        if metrics_config is not None:
            from repro.obs.probes import instrument_scenario

            scenario.metrics = instrument_scenario(scenario, metrics_config)

        # Warm-start is the very last build step: with every component
        # wired (including instrumentation), the scenario either fast-
        # forwards by restoring a stored snapshot or runs the warm-up
        # once and stores it.  Either way it comes back sitting at
        # ``warm_start.at`` with state byte-identical to an uninterrupted
        # run.
        if profile.warm_start is not None:
            from repro.snapshot import apply_warm_start

            apply_warm_start(scenario, self, profile.warm_start)
        return scenario
