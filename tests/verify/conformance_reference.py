"""Reference conformance replay for the sanitizer differential test.

A frozen copy of the straightforward ``check_trace`` implementation that
:mod:`repro.verify.conformance` replaced with a per-station, cached-profile
replay.  It resolves each station's profile and dialogue state per record
and reads every detail field through ``str(detail.get(...))``; the
optimized checker must produce identical :class:`ConformanceReport`
values (violations in order, and the ``examined`` tally) on any trace.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Set

from repro.mac.frames import MULTICAST
from repro.sim.trace import TraceRecord
from repro.verify.conformance import ConformanceReport, StationProfile, Violation

_EPS = 1e-12


class _DialogueState:
    """Mutable per-station bookkeeping while replaying a trace."""

    __slots__ = (
        "state",
        "pending_rts",
        "pending_ds",
        "pending_data_esn",
        "reack_esn",
        "received_esns",
        "acked_esns",
        "tx_end",
        "max_data_esn",
    )

    def __init__(self, initial: str) -> None:
        self.state = initial
        #: Clean, unanswered RTS per peer: peer -> esn (None allowed).
        self.pending_rts: Dict[str, Optional[int]] = {}
        #: DS announced but DATA not yet sent, per peer: peer -> esn.
        self.pending_ds: Dict[str, Optional[int]] = {}
        #: Most recent clean DATA not yet acknowledged, per peer.
        self.pending_data_esn: Dict[str, Optional[int]] = {}
        #: Rule-7 re-ACK armed by a retransmitted RTS, per peer.
        self.reack_esn: Dict[str, Optional[int]] = {}
        #: Every ESN of clean DATA received, per peer.
        self.received_esns: Dict[str, Set[int]] = {}
        #: Every ESN this station has acknowledged, per peer.
        self.acked_esns: Dict[str, Set[int]] = {}
        #: End time of this station's own in-flight transmission.
        self.tx_end: float = float("-inf")
        #: Highest DATA ESN sent per destination (esn-regression check).
        self.max_data_esn: Dict[str, int] = {}


def reference_check_trace(
    trace: Iterable[TraceRecord],
    profiles: Mapping[str, StationProfile],
    bitrate_bps: float = 256_000.0,
) -> ConformanceReport:
    """Replay ``trace`` against the per-station ``profiles``.

    Stations appearing in the trace without a profile are treated like
    non-dialogue MACs (invariant checks only).  ``bitrate_bps`` converts
    frame sizes to airtime for the overlap check.
    """
    report = ConformanceReport()
    states: Dict[str, _DialogueState] = {}
    last_time = float("-inf")

    def dialogue(name: str) -> _DialogueState:
        entry = states.get(name)
        if entry is None:
            profile = profiles.get(name)
            initial = (
                profile.statechart.initial
                if profile is not None and profile.statechart is not None
                else "IDLE"
            )
            entry = _DialogueState(initial)
            states[name] = entry
        return entry

    for record in trace:
        report.examined[record.category] = report.examined.get(record.category, 0) + 1  # repro-lint: allow=REPRO107 (sanitizer tally)
        if record.time < last_time - _EPS:
            report.violations.append(Violation(
                "non-monotonic-clock", record.time, record.station,
                f"clock moved backwards ({last_time:.9f} -> {record.time:.9f})",
            ))
        last_time = max(last_time, record.time)

        profile = profiles.get(record.station)
        if record.category == "state":
            _check_state(record, profile, dialogue(record.station), report)
        elif record.category == "send":
            _check_send(record, profile, dialogue(record.station), report, bitrate_bps)
        elif record.category == "recv":
            _note_recv(record, profile, dialogue(record.station))
        elif record.category == "power":
            # A power cycle (Figure 9, fault-injection churn) reboots the
            # radio into its statechart's initial state and forgets any
            # half-open dialogue; replay must do the same or the next
            # transition reads as a trace gap.
            initial = (
                profile.statechart.initial
                if profile is not None and profile.statechart is not None
                else "IDLE"
            )
            entry = dialogue(record.station)
            entry.state = initial
            entry.pending_rts.clear()
            entry.pending_ds.clear()
            entry.pending_data_esn.clear()
            entry.reack_esn.clear()
            entry.tx_end = float("-inf")
    return report


def _check_state(
    record: TraceRecord,
    profile: Optional[StationProfile],
    entry: _DialogueState,
    report: ConformanceReport,
) -> None:
    frm = str(record.detail.get("frm", ""))
    to = str(record.detail.get("to", ""))
    if profile is None or profile.statechart is None:
        entry.state = to
        return
    chart = profile.statechart
    for state in (frm, to):
        if state not in chart:
            report.violations.append(Violation(
                "unknown-state", record.time, record.station,
                f"state {state!r} is not in the {chart.name} statechart",
            ))
    if frm != entry.state:
        report.violations.append(Violation(
            "illegal-transition", record.time, record.station,
            f"trace gap: transition claims {frm!r} but station was in"
            f" {entry.state!r}",
        ))
    elif not chart.allows(frm, to):
        report.violations.append(Violation(
            "illegal-transition", record.time, record.station,
            f"{frm} -> {to} is not a legal {chart.name} transition",
        ))
    entry.state = to


def _check_send(
    record: TraceRecord,
    profile: Optional[StationProfile],
    entry: _DialogueState,
    report: ConformanceReport,
    bitrate_bps: float,
) -> None:
    detail = record.detail
    kind = detail.get("kind")
    dst = str(detail.get("dst", ""))
    esn = detail.get("esn")
    size = detail.get("size")

    # Half-duplex: one station, one frame on the air at a time.
    if record.time < entry.tx_end - _EPS:
        report.violations.append(Violation(
            "overlapping-transmission", record.time, record.station,
            f"{kind} to {dst} starts before the previous transmission ends"
            f" at t={entry.tx_end:.9f}",
        ))
    if isinstance(size, (int, float)) and size > 0:
        entry.tx_end = record.time + (float(size) * 8.0) / bitrate_bps

    if profile is None or profile.statechart is None or kind is None:
        return

    if kind == "CTS":
        if dst not in entry.pending_rts:
            report.violations.append(Violation(
                "cts-without-rts", record.time, record.station,
                f"CTS to {dst} without an unanswered RTS from {dst}",
            ))
        else:
            del entry.pending_rts[dst]
    elif kind == "DS":
        entry.pending_ds[dst] = esn
    elif kind == "DATA":
        if profile.use_ds and dst != MULTICAST:
            announced = entry.pending_ds.pop(dst, "missing")
            if announced == "missing":
                report.violations.append(Violation(
                    "data-without-ds", record.time, record.station,
                    f"DATA to {dst} without a preceding DS",
                ))
            elif announced is not None and esn is not None and announced != esn:
                report.violations.append(Violation(
                    "data-without-ds", record.time, record.station,
                    f"DATA esn={esn} to {dst} but the DS announced"
                    f" esn={announced}",
                ))
        if esn is not None and dst != MULTICAST:
            previous = entry.max_data_esn.get(dst)
            if (
                profile.ordered_esn
                and previous is not None
                and int(esn) < previous
            ):
                report.violations.append(Violation(
                    "esn-regression", record.time, record.station,
                    f"DATA esn={esn} to {dst} after esn={previous}",
                ))
            entry.max_data_esn[dst] = max(previous or 0, int(esn))
    elif kind == "ACK":
        _check_ack(record, entry, dst, esn, report)


def _check_ack(
    record: TraceRecord,
    entry: _DialogueState,
    dst: str,
    esn: Any,
    report: ConformanceReport,
) -> None:
    if esn is None:
        # ACKs without an ESN carry no sequence contract to check.
        return
    esn = int(esn)
    acked = entry.acked_esns.setdefault(dst, set())
    if entry.pending_data_esn.get(dst) == esn:
        entry.pending_data_esn[dst] = None
        acked.add(esn)
        return
    if entry.reack_esn.get(dst) == esn:
        entry.reack_esn[dst] = None
        acked.add(esn)
        return
    if esn in entry.received_esns.get(dst, set()):
        report.violations.append(Violation(
            "ack-duplicate-esn", record.time, record.station,
            f"re-ACK of esn={esn} to {dst} without a retransmitted RTS",
        ))
    else:
        report.violations.append(Violation(
            "ack-unsolicited", record.time, record.station,
            f"ACK esn={esn} to {dst} matches no DATA received from {dst}",
        ))


def _note_recv(
    record: TraceRecord,
    profile: Optional[StationProfile],
    entry: _DialogueState,
) -> None:
    detail = record.detail
    if not detail.get("clean", False):
        return
    if str(detail.get("dst", "")) != record.station:
        return  # overheard or multicast: not part of this station's dialogue
    kind = detail.get("kind")
    src = str(detail.get("src", ""))
    esn = detail.get("esn")
    if kind == "RTS":
        entry.pending_rts[src] = esn
        if esn is not None and int(esn) in entry.received_esns.get(src, set()):
            # Control rule 7: a re-requested exchange may be re-ACKed.
            entry.reack_esn[src] = int(esn)
    elif kind == "DATA":
        if esn is not None:
            entry.pending_data_esn[src] = int(esn)
            entry.received_esns.setdefault(src, set()).add(int(esn))
