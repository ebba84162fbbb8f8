"""The shared radio medium.

A :class:`Medium` owns the set of in-flight :class:`Transmission` objects
and decides, per receiver, whether each frame arrives *cleanly*.  The
semantics come straight from the paper (§3):

* a station successfully receives a packet iff the packet's signal is above
  the reception threshold **and** exceeds the sum of all other signals by the
  capture ratio (10 dB) **for the entire packet transmission time**;
* stations are half-duplex: transmitting at any point during a reception
  corrupts that reception;
* intermittent noise independently destroys a packet at a receiver with a
  configured probability, regardless of packet size (§3.3.1).

Concrete subclasses answer two questions — who can hear whom, and at what
power — via :meth:`Medium._audible` and :meth:`Medium._interference_ok`:

* :class:`~repro.phy.graph_medium.GraphMedium`: boolean connectivity, any
  overlap of two audible signals is a collision (the §2.1 "naive model").
* :class:`~repro.phy.grid_medium.GridMedium`: the cube-grid signal model
  with real powers, thresholds and capture.

Corruption is evaluated incrementally: whenever a transmission starts, every
in-flight reception it can disturb is re-checked; interference can only mark
receptions corrupted, never un-corrupt them, so transmission *ends* need no
re-check.

Performance notes
-----------------
Audibility between a fixed pair of stations never changes while the
topology holds still, so the base class memoizes :meth:`_audible` behind
the public :meth:`audible` accessor (and :class:`GridMedium` likewise
memoizes pairwise receive power).  The cache is invalidated on
:meth:`attach`, :meth:`detach` and — via :meth:`invalidate_links` — on
station movement; :class:`~repro.topo.station.Station`'s position setter
calls it automatically.  MAC-layer code must go through :meth:`audible`
(the determinism lint's REPRO106 enforces this) so the cache stays the
single source of truth.

:meth:`transmit` evaluates interference through two hooks —
:meth:`_new_tx_clean` and :meth:`_reception_survives` — that concrete media
implement with per-port aggregates over the concurrent-transmission list,
computed at most once per port per transmission, instead of rebuilding a
filtered transmission list for every (port, reception) pair.  Both hooks
rely on the invariant that the evaluated port is not itself transmitting
(a transmitting port's receptions are corrupted up front by half-duplex),
so no concurrent transmission originates at that port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, TYPE_CHECKING

from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mac.frames import Frame
    from repro.phy.noise import PacketErrorModel


class ReceiverPort:
    """What the medium needs from an attached radio (a MAC entity).

    Subclasses must provide :attr:`name` and :attr:`position` and override
    the ``on_*`` callbacks they care about.  ``position`` is (x, y, z) in
    feet; the graph medium ignores it.
    """

    name: str = "?"
    position: Any = (0.0, 0.0, 0.0)

    def on_frame(self, frame: "Frame", clean: bool) -> None:
        """A frame finished arriving.  ``clean`` is False for collisions,
        capture failures, half-duplex overlap, or noise corruption."""

    def on_carrier(self, busy: bool) -> None:
        """The sensed-carrier state changed (used by CSMA variants)."""

    def on_transmit_complete(self, transmission: "Transmission") -> None:
        """Our own transmission left the air."""


@dataclass
class Transmission:
    """One frame in flight."""

    frame: "Frame"
    sender: ReceiverPort
    start: float
    end: float
    #: Receivers currently copying this transmission, with corruption flags.
    receptions: Dict[ReceiverPort, bool] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class MediumError(RuntimeError):
    """Raised on misuse: transmitting while already transmitting, etc."""


class Medium:
    """Base class implementing transmission lifecycle and corruption logic."""

    def __init__(self, sim: Simulator, bitrate_bps: float = 256_000.0) -> None:
        if bitrate_bps <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate_bps!r}")
        self.sim = sim
        self.bitrate_bps = bitrate_bps
        self._ports: List[ReceiverPort] = []
        #: O(1) membership/index for :attr:`_ports` (which keeps the
        #: deterministic attach-order iteration the digests depend on).
        self._port_index: Dict[ReceiverPort, int] = {}
        #: In-flight transmissions in start order.  A dict (not a set) so
        #: iteration order — and therefore floating-point interference
        #: summation order — is deterministic across runs and processes.
        self._active: Dict[Transmission, None] = {}
        self._transmitting: Dict[ReceiverPort, Transmission] = {}
        self._carrier_count: Dict[ReceiverPort, int] = {}
        self._noise_models: List["PacketErrorModel"] = []
        #: Pairwise audibility memo, keyed by (id(sender), id(receiver)).
        #: Cleared wholesale on any topology change; ids are safe as keys
        #: because every cached port is kept alive by the ports list or an
        #: in-flight transmission, and both attach and detach invalidate.
        self._audible_cache: Dict[Tuple[int, int], bool] = {}
        #: Per-sender hearer list (ports audible from the sender, in attach
        #: order), derived from the pairwise memo above and invalidated with
        #: it.  :meth:`transmit` iterates this instead of probing the
        #: pairwise cache once per attached port per frame.
        self._audible_from: Dict[int, List[ReceiverPort]] = {}
        #: Statistics: frames delivered cleanly / corrupted, per medium.
        self.clean_deliveries = 0
        self.corrupt_deliveries = 0
        #: Busy-time accounting for the channel-utilisation probe: total
        #: seconds with >= 1 transmission in flight, plus the start of the
        #: current busy interval while one is open.  Maintained on the 0->1
        #: and ->0 transitions of :attr:`_active`, so the per-frame cost is
        #: two branch tests.
        self._busy_time = 0.0
        self._busy_since = 0.0

    # ------------------------------------------------------------- topology
    def attach(self, port: ReceiverPort) -> None:
        """Register a radio with the medium."""
        if port in self._port_index:
            raise MediumError(f"port {port.name!r} attached twice")
        self._port_index[port] = len(self._ports)
        self._ports.append(port)
        self._carrier_count[port] = 0
        self.invalidate_links()

    def detach(self, port: ReceiverPort) -> None:
        """Remove a radio (power-off, leaving the floor).

        In-flight receptions at the port are silently discarded; an
        in-flight transmission from the port keeps occupying the air until
        its scheduled end (a real radio's last frame does too).
        """
        index = self._port_index.pop(port)
        self._ports.pop(index)
        for later in self._ports[index:]:
            self._port_index[later] -= 1
        self._carrier_count.pop(port, None)
        for tx in self._active:
            tx.receptions.pop(port, None)
        self.invalidate_links()

    @property
    def ports(self) -> List[ReceiverPort]:
        return list(self._ports)

    def add_noise_model(self, model: "PacketErrorModel") -> None:
        """Attach a packet-error model applied to every delivery."""
        self._noise_models.append(model)

    def remove_noise_model(self, model: "PacketErrorModel") -> None:
        """Detach a previously-added packet-error model.

        Transient models (fault injection's noise bursts) add themselves
        for a window and remove themselves at its end; removing a model
        that was never added is an error.
        """
        try:
            self._noise_models.remove(model)
        except ValueError:
            raise MediumError("noise model was never added") from None

    def attached(self, port: ReceiverPort) -> bool:
        """Whether ``port`` is currently registered with the medium.

        Powered-off stations are detached; callers that poke link state at
        arbitrary times (fault injection) use this to skip them.
        """
        return port in self._port_index

    # ------------------------------------------------------------ link cache
    def audible(self, sender: ReceiverPort, receiver: ReceiverPort) -> bool:
        """Cached :meth:`_audible`: can ``receiver`` hear ``sender`` at all?

        This is the supported accessor for MAC-layer and experiment code;
        calling ``_audible`` directly bypasses the link cache (and trips
        lint rule REPRO106).
        """
        key = (id(sender), id(receiver))
        cache = self._audible_cache
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = self._audible(sender, receiver)
        return hit

    def invalidate_links(self) -> None:
        """Drop every cached link property (audibility, receive power).

        Must be called whenever a station moves; attach/detach call it
        automatically.  Subclasses with extra caches extend this.
        """
        self._audible_cache.clear()
        self._audible_from.clear()

    # ------------------------------------------------------------ subclasses
    def _audible(self, sender: ReceiverPort, receiver: ReceiverPort) -> bool:
        """Can ``receiver`` detect/copy a signal from ``sender`` at all?"""
        raise NotImplementedError

    def _interference_ok(
        self, tx: Transmission, receiver: ReceiverPort, others: List[Transmission]
    ) -> bool:
        """Does ``tx`` survive the given concurrent ``others`` at
        ``receiver`` (capture condition)?  ``others`` excludes ``tx`` and
        contains only transmissions from senders other than ``receiver``."""
        raise NotImplementedError

    # --------------------------------------------------- interference hooks
    def _new_tx_clean(
        self,
        tx: Transmission,
        port: ReceiverPort,
        concurrent: List[Transmission],
        memo: Dict[ReceiverPort, Any],
    ) -> bool:
        """Does the just-started ``tx`` begin cleanly at ``port``?

        ``concurrent`` is the list of other in-flight transmissions that
        overlap ``tx`` (start order); ``memo`` is a scratch dict scoped to
        this :meth:`transmit` call for per-port aggregates.  ``port`` is
        guaranteed not to be transmitting.  The default delegates to
        :meth:`_interference_ok` for third-party subclasses.
        """
        return self._interference_ok(tx, port, concurrent)

    def _reception_survives(
        self,
        other: Transmission,
        port: ReceiverPort,
        tx: Transmission,
        concurrent: List[Transmission],
        memo: Dict[ReceiverPort, Any],
    ) -> bool:
        """Does the in-progress reception of ``other`` at ``port`` survive
        the arrival of ``tx``?

        ``concurrent`` excludes ``tx`` and includes ``other``; ``port`` is
        guaranteed not to be transmitting (its receptions would already be
        corrupted).  The default rebuilds the competitor list and delegates
        to :meth:`_interference_ok`.
        """
        remaining = [t for t in concurrent if t is not other]
        remaining.append(tx)
        return self._interference_ok(other, port, remaining)

    # ---------------------------------------------------------- transmitting
    def airtime(self, size_bytes: int) -> float:
        """Seconds needed to put ``size_bytes`` on the air."""
        if size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {size_bytes!r}")
        return (size_bytes * 8) / self.bitrate_bps

    def is_transmitting(self, port: ReceiverPort) -> bool:
        return port in self._transmitting

    def carrier_sensed(self, port: ReceiverPort) -> bool:
        """True when the port senses any foreign signal right now."""
        return self._carrier_count.get(port, 0) > 0

    def transmit(self, sender: ReceiverPort, frame: "Frame") -> Transmission:
        """Put ``frame`` on the air from ``sender``; returns the transmission.

        Delivery callbacks fire at the end of the airtime.  Propagation delay
        is negligible at nanocell scale (≤ 4 m ≈ 13 ns) and is modelled as
        zero, as in the paper.
        """
        if sender not in self._port_index:
            raise MediumError(f"sender {sender.name!r} is not attached")
        if sender in self._transmitting:
            raise MediumError(f"{sender.name!r} is already transmitting")
        now = self.sim.now
        tx = Transmission(frame=frame, sender=sender, start=now, end=now + self.airtime(frame.size_bytes))
        active = self._active
        # Transmissions whose scheduled end is exactly now have zero overlap
        # with this one (their end event just hasn't processed yet) and
        # cannot interfere; half-duplex corruption below still applies.
        concurrent = [t for t in active if t.end > now]
        if not active:
            self._busy_since = now  # channel transitions idle -> busy
        active[tx] = None
        self._transmitting[sender] = tx

        # Half-duplex: anything the sender was copying is now lost.
        for other in active:
            if other is not tx and sender in other.receptions:
                other.receptions[sender] = True  # corrupted

        # Start receptions at every audible port.  The hearer list is cached
        # per sender in attach order (so callback order matches the port
        # list) and rebuilt from the pairwise memo after any topology change.
        sender_id = id(sender)
        hearers = self._audible_from.get(sender_id)
        if hearers is None:
            audible_cache = self._audible_cache
            hearers = []
            for port in self._ports:
                if port is sender:
                    continue
                key = (sender_id, id(port))
                hearable = audible_cache.get(key)
                if hearable is None:
                    hearable = audible_cache[key] = self._audible(sender, port)
                if hearable:
                    hearers.append(port)
            self._audible_from[sender_id] = hearers
        memo: Dict[ReceiverPort, Any] = {}
        transmitting = self._transmitting
        carrier_count = self._carrier_count
        receptions = tx.receptions
        for port in hearers:
            corrupted = port in transmitting
            if not corrupted and concurrent and not self._new_tx_clean(
                tx, port, concurrent, memo
            ):
                corrupted = True
            receptions[port] = corrupted
            count = carrier_count.get(port)
            if count is not None:
                carrier_count[port] = count + 1
                if count == 0:
                    port.on_carrier(True)
        if concurrent:
            # The new signal may destroy receptions already in progress —
            # including at ports where it is itself below the reception
            # threshold ("the sum of the other signals" counts sub-threshold
            # interferers too), so this pass visits every attached port.
            # The interference hooks are pure functions of topology and the
            # per-transmit memo, so running this after (rather than
            # interleaved with) the reception starts changes nothing.
            for port in self._ports:
                if port is sender:
                    continue
                for other in concurrent:
                    if other.receptions.get(port) is False and not self._reception_survives(
                        other, port, tx, concurrent, memo
                    ):
                        other.receptions[port] = True

        # Priority -1: at a time tie, receivers learn of the frame's end
        # before any of their own timers fire (see EventHandle docs).
        self.sim.at(tx.end, self._finish, tx, priority=-1)
        return tx

    def _finish(self, tx: Transmission) -> None:
        self._active.pop(tx, None)
        if not self._active:
            self._busy_time += self.sim.now - self._busy_since  # busy -> idle
        if self._transmitting.get(tx.sender) is tx:
            del self._transmitting[tx.sender]
        trace = self.sim.trace
        record = trace.enabled
        if record:
            # One rendering per transmission, shared by every receiver's
            # record.
            frame = tx.frame
            described = frame.describe()
            kind = frame.kind._value_
            src, dst, esn, size = frame.src, frame.dst, frame.esn, frame.size_bytes
        carrier_count = self._carrier_count
        now = self.sim.now
        noise = bool(self._noise_models)
        for port, corrupted in tx.receptions.items():
            count = carrier_count.get(port)
            if count is None:
                continue  # detached mid-flight
            # _carrier_down inlined: one dict probe instead of two.
            carrier_count[port] = count - 1
            if count == 1:
                port.on_carrier(False)
            clean = not corrupted and not (noise and self._noise_drops(tx, port))
            if clean:
                self.clean_deliveries += 1
            else:
                self.corrupt_deliveries += 1
            if record:
                trace.record(
                    now, "recv", port.name,
                    frame=described, kind=kind, src=src, dst=dst, esn=esn,
                    size=size, clean=clean,
                )
            port.on_frame(tx.frame, clean)
        # A powered-off radio does not observe its own transmit completion
        # (its last frame still occupied the air; see detach()).  Without
        # this check a dead station's completion callback could restart
        # its contention machinery and spin until the simulation horizon.
        if tx.sender in carrier_count:
            tx.sender.on_transmit_complete(tx)

    def _noise_drops(self, tx: Transmission, receiver: ReceiverPort) -> bool:
        for model in self._noise_models:
            if model.drops(self.sim, tx, receiver):
                return True
        return False

    # ----------------------------------------------------------- carrier CB
    def _carrier_up(self, port: ReceiverPort) -> None:
        count = self._carrier_count.get(port)
        if count is None:
            return
        self._carrier_count[port] = count + 1
        if count == 0:
            port.on_carrier(True)

    def _carrier_down(self, port: ReceiverPort) -> None:
        count = self._carrier_count.get(port)
        if count is None:
            return
        self._carrier_count[port] = count - 1
        if count == 1:
            port.on_carrier(False)

    # ------------------------------------------------------------- inspection
    def active_transmissions(self) -> List[Transmission]:
        return list(self._active)

    def active_count(self) -> int:
        """Number of transmissions in flight right now (O(1))."""
        return len(self._active)

    def busy_seconds(self) -> float:
        """Cumulative seconds the channel has carried >= 1 transmission,
        including the currently open busy interval.  Divided by ``sim.now``
        this is the busy fraction the channel probe exports."""
        busy = self._busy_time
        if self._active:
            busy += self.sim.now - self._busy_since
        return busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(ports={len(self._ports)},"
            f" active={len(self._active)}, bitrate={self.bitrate_bps:g}bps)"
        )
