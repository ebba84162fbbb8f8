"""MAC frame formats.

The paper uses six frame types.  Control frames (RTS, CTS, DS, ACK, RRTS)
are 30 bytes; DATA frames are whatever the network layer hands down (512
bytes in all the paper's experiments; 40 bytes for our TCP transport ACKs).

Appendix B.2 adds three header fields used by the backoff copying rules:
``local_backoff`` (the sender's congestion estimate), ``remote_backoff``
(the sender's estimate of the *receiver's* congestion, or I_DONT_KNOW), and
``esn`` (exchange sequence number, used both to detect retransmissions and
to de-duplicate DATA after a lost ACK).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Final, Iterator, Optional

#: Destination name denoting a multicast frame (§3.3.4).
MULTICAST: Final[str] = "*"

#: Sentinel for an unknown remote backoff (Appendix B.2).
I_DONT_KNOW: Final[Optional[float]] = None

#: Size of every control frame, bytes (§3: "control packets ... are 30 bytes").
CONTROL_BYTES: Final[int] = 30

_frame_ids: Iterator[int] = itertools.count(1)


class FrameType(Enum):
    """The MAC frame kinds: MACAW's six plus §4's NACK extension."""

    RTS = "RTS"
    CTS = "CTS"
    DS = "DS"
    DATA = "DATA"
    ACK = "ACK"
    RRTS = "RRTS"
    NACK = "NACK"

    # Members are singletons, so identity hashing is equivalent to the
    # Enum default but C-speed — frame kinds key the per-station stats
    # dicts touched on every send/receive.
    __hash__ = object.__hash__

    @property
    def is_control(self) -> bool:
        return self is not FrameType.DATA


@dataclass
class Frame:
    """One frame on the air.

    Attributes
    ----------
    kind:
        Frame type.
    src, dst:
        MAC names.  ``dst`` may be :data:`MULTICAST`.
    size_bytes:
        Wire size; determines airtime.
    data_bytes:
        Length of the proposed/ongoing DATA transmission, carried by RTS,
        CTS, DS and RRTS so overhearers can size their defer periods.
    local_backoff, remote_backoff:
        Appendix B.2 copying fields (``remote_backoff`` may be
        :data:`I_DONT_KNOW`).
    esn:
        Exchange sequence number for the (src → dst) stream.
    retry:
        True when this RTS re-attempts an exchange (lets the receiver apply
        the B.2 retransmission inference).
    payload:
        For DATA frames, the network-layer packet being carried.
    """

    kind: FrameType
    src: str
    dst: str
    size_bytes: int
    data_bytes: int = 0
    local_backoff: Optional[float] = None
    remote_backoff: Optional[float] = I_DONT_KNOW
    esn: Optional[int] = None
    retry: bool = False
    payload: Any = None
    #: §4 piggyback extension: on an RTS, the sender indicates it does NOT
    #: need an immediate ACK (more packets are queued for this stream).
    no_ack_request: bool = False
    #: §4 piggyback extension.  On an RTS: the ESN of the sender's previous
    #: (optimistically completed) packet, asking "did you receive this?".
    #: On a CTS: the echo of that ESN if the packet arrived, else None.
    ack_esn: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_frame_ids))

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"frame size must be positive, got {self.size_bytes!r}")
        if self.kind.is_control and self.payload is not None:
            raise ValueError(f"{self.kind.value} frames carry no payload")

    @property
    def is_multicast(self) -> bool:
        return self.dst == MULTICAST

    def addressed_to(self, name: str) -> bool:
        """True when this frame is for ``name`` (multicast reaches all)."""
        return self.dst == name or self.is_multicast

    def describe(self) -> str:
        """Compact human-readable form for traces: 'RTS A→B esn=3'."""
        out = f"{self.kind._value_} {self.src}→{self.dst}"
        if self.esn is not None:
            out += f" esn={self.esn}"
        if self.retry:
            out += " retry"
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Frame({self.describe()}, {self.size_bytes}B)"


def control_frame(
    kind: FrameType,
    src: str,
    dst: str,
    data_bytes: int = 0,
    local_backoff: Optional[float] = None,
    remote_backoff: Optional[float] = I_DONT_KNOW,
    esn: Optional[int] = None,
    retry: bool = False,
    no_ack_request: bool = False,
    ack_esn: Optional[int] = None,
) -> Frame:
    """Build a 30-byte control frame of the given kind."""
    if kind is FrameType.DATA:
        raise ValueError("use data_frame() for DATA")
    return Frame(
        kind=kind,
        src=src,
        dst=dst,
        size_bytes=CONTROL_BYTES,
        data_bytes=data_bytes,
        local_backoff=local_backoff,
        remote_backoff=remote_backoff,
        esn=esn,
        retry=retry,
        no_ack_request=no_ack_request,
        ack_esn=ack_esn,
    )


def data_frame(
    src: str,
    dst: str,
    size_bytes: int,
    payload: Any = None,
    local_backoff: Optional[float] = None,
    remote_backoff: Optional[float] = I_DONT_KNOW,
    esn: Optional[int] = None,
) -> Frame:
    """Build a DATA frame carrying a network-layer packet."""
    return Frame(
        kind=FrameType.DATA,
        src=src,
        dst=dst,
        size_bytes=size_bytes,
        data_bytes=size_bytes,
        local_backoff=local_backoff,
        remote_backoff=remote_backoff,
        esn=esn,
        payload=payload,
    )
