"""Lightweight protocol event tracing.

A :class:`Trace` collects timestamped records emitted by model components
(frame sent, frame received, collision, state change, packet drop...).
Traces power the debugging workflow, the conformance sanitizer
(:mod:`repro.verify.conformance`) and the determinism contract: two runs of
the same scenario under the same seed must give byte-identical
:meth:`Trace.digest` values.  Tracing is disabled by default because
recording every event of a 2000-second run is expensive.

The digest renders each record as one line,
``repr(time)|category|station|key=repr(value),...`` with the detail keys
sorted, and hashes the lines with SHA-256.  That format is a frozen
contract.  :meth:`Trace.digest` produces it through renderers specialized
for the three record shapes a run writes almost exclusively (``state``,
``send``, ``recv``); any record of another shape takes the generic
sorted-key path, so both always render the same bytes.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

#: Shared, read-only detail of records built without one.
_NO_DETAIL: Mapping[str, Any] = MappingProxyType({})

#: Lines rendered per ``hasher.update`` call: bounded memory, few calls.
_DIGEST_CHUNK = 1024


class TraceRecord(NamedTuple):
    """One traced protocol event."""

    time: float
    category: str
    station: str
    detail: Mapping[str, Any] = _NO_DETAIL

    def matches(self, category: Optional[str] = None, station: Optional[str] = None) -> bool:
        """Filter predicate used by :meth:`Trace.select`."""
        if category is not None and self.category != category:
            return False
        if station is not None and self.station != station:
            return False
        return True


#: Builds a record in one C call, skipping the NamedTuple's Python-level
#: ``__new__`` (``Trace.record`` always passes all four fields).
_new_record = tuple.__new__


def _render_generic(detail: Mapping[str, Any]) -> str:
    """The canonical detail rendering: sorted keys, ``repr`` values."""
    return ",".join(f"{key}={detail[key]!r}" for key in sorted(detail))


class Trace:
    """Append-only record store with simple filtering.

    ``enabled=False`` turns :meth:`record` into a no-op so the hot path pays
    only one attribute check.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self._records: List[TraceRecord] = []
        #: Count of records dropped after hitting ``capacity``.
        self.dropped = 0

    def record(self, time: float, category: str, station: str, **detail: Any) -> None:
        """Append a record (no-op when disabled; drops when at capacity)."""
        if not self.enabled:
            return
        if self.capacity is not None and len(self._records) >= self.capacity:
            self.dropped += 1
            return
        self._records.append(_new_record(TraceRecord, (time, category, station, detail)))

    def select(
        self, category: Optional[str] = None, station: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records matching the given filters, in time order."""
        return [r for r in self._records if r.matches(category, station)]

    def counts(self) -> Dict[Tuple[str, str], int]:
        """Histogram of records keyed by ``(category, station)``."""
        out: Dict[Tuple[str, str], int] = {}
        for r in self._records:
            key = (r.category, r.station)
            out[key] = out.get(key, 0) + 1  # repro-lint: allow=REPRO107 (post-hoc histogram)
        return out

    def clear(self) -> None:
        """Discard all records (keeps the enabled flag)."""
        self._records.clear()
        self.dropped = 0

    def digest(self) -> str:
        """SHA-256 over the canonical rendering of every record.

        Each record is the line ``repr(time)|category|station|detail``
        where ``detail`` is ``key=repr(value)`` pairs joined by commas in
        sorted key order, so insertion order cannot leak into the digest.
        The lines are hashed in chunks of :data:`_DIGEST_CHUNK`, never
        joined whole.

        The fast paths render exactly what the generic path would:

        * ``repr(time)`` is reused for a run of records at one instant:
          when the time is the previous record's time object, or a
          non-zero ``float`` or ``int`` equal to it and of the same type
          (equal such values have equal reprs; ``0.0`` and ``-0.0``
          compare equal but do not, and NaN never compares equal).
        * A ``state`` detail of exactly ``frm``/``to`` strings renders
          once per distinct pair.
        * ``send`` and ``recv`` details render with one f-string each
          when their key set is exactly what the MAC and the medium write.
        """
        hasher = hashlib.sha256()
        records = self._records
        state_bodies: Dict[Tuple[str, str], str] = {}
        render = _render_generic
        prev_time: Any = object()  # matches no record's time
        prev_type: Any = None
        time_text = ""
        for start in range(0, len(records), _DIGEST_CHUNK):
            lines: List[str] = []
            append = lines.append
            for time, category, station, detail in records[start:start + _DIGEST_CHUNK]:
                if time is not prev_time:
                    time_type = type(time)
                    if (
                        time_type is not prev_type
                        or (time_type is not float and time_type is not int)
                        or time != prev_time
                        or not time
                    ):
                        time_text = repr(time)
                        prev_type = time_type
                    prev_time = time
                body = None
                if category == "state":
                    if len(detail) == 2:
                        frm = detail.get("frm")
                        to = detail.get("to")
                        if type(frm) is str and type(to) is str:
                            pair = (frm, to)
                            body = state_bodies.get(pair)
                            if body is None:
                                body = state_bodies[pair] = f"frm={frm!r},to={to!r}"
                elif category == "recv":
                    if len(detail) == 7:
                        try:
                            body = (
                                f"clean={detail['clean']!r},dst={detail['dst']!r},"
                                f"esn={detail['esn']!r},frame={detail['frame']!r},"
                                f"kind={detail['kind']!r},size={detail['size']!r},"
                                f"src={detail['src']!r}"
                            )
                        except KeyError:
                            pass
                elif category == "send":
                    if len(detail) == 8:
                        try:
                            body = (
                                f"data_bytes={detail['data_bytes']!r},dst={detail['dst']!r},"
                                f"esn={detail['esn']!r},frame={detail['frame']!r},"
                                f"kind={detail['kind']!r},retry={detail['retry']!r},"
                                f"size={detail['size']!r},src={detail['src']!r}"
                            )
                        except KeyError:
                            pass
                if body is None:
                    body = render(detail)
                append(f"{time_text}|{category}|{station}|{body}\n")
            hasher.update("".join(lines).encode("utf-8"))
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)
