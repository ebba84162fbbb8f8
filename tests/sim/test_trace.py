"""Trace recorder behaviour."""

import hashlib

from repro.sim.trace import Trace, TraceRecord


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, "send", "P1", frame="RTS")
    assert len(trace) == 0


def test_record_and_iterate():
    trace = Trace()
    trace.record(1.0, "send", "P1", frame="RTS")
    trace.record(2.0, "send", "P2", frame="CTS")
    assert [r.station for r in trace] == ["P1", "P2"]


def test_select_by_category_and_station():
    trace = Trace()
    trace.record(1.0, "send", "P1")
    trace.record(2.0, "state", "P1")
    trace.record(3.0, "send", "P2")
    assert len(trace.select(category="send")) == 2
    assert len(trace.select(station="P1")) == 2
    assert len(trace.select(category="send", station="P1")) == 1


def test_counts_histogram():
    trace = Trace()
    trace.record(1.0, "send", "P1")
    trace.record(2.0, "send", "P1")
    trace.record(3.0, "state", "P2")
    assert trace.counts() == {("send", "P1"): 2, ("state", "P2"): 1}


def test_capacity_drops_and_counts():
    trace = Trace(capacity=2)
    for t in range(5):
        trace.record(float(t), "send", "P1")
    assert len(trace) == 2
    assert trace.dropped == 3


def test_clear_resets():
    trace = Trace(capacity=1)
    trace.record(0.0, "a", "s")
    trace.record(1.0, "a", "s")
    trace.clear()
    assert len(trace) == 0
    assert trace.dropped == 0
    assert trace.enabled


def test_record_is_frozen():
    record = TraceRecord(1.0, "send", "P1", {"k": 1})
    assert record.matches(category="send")
    assert not record.matches(category="state")
    assert record.matches(station="P1")
    assert not record.matches(station="P2")


# ------------------------------------------------------------ digest golden


def reference_digest(records) -> str:
    """The straightforward renderer the specialized ``Trace.digest`` replaced.

    One line per record, ``repr(time)|category|station|detail`` with the
    detail's keys sorted and its values rendered by ``repr``.
    """
    hasher = hashlib.sha256()
    for record in records:
        detail = ",".join(
            f"{key}={record.detail[key]!r}" for key in sorted(record.detail)
        )
        line = f"{record.time!r}|{record.category}|{record.station}|{detail}\n"
        hasher.update(line.encode("utf-8"))
    return hasher.hexdigest()


SEND = dict(frame="RTS A→B esn=3", kind="RTS", src="A", dst="B", esn=3,
            size=30, data_bytes=512, retry=False)
RECV = dict(frame="RTS A→B esn=3", kind="RTS", src="A", dst="B", esn=3,
            size=30, clean=True)


def assert_golden(trace):
    assert trace.digest() == reference_digest(list(trace))


def test_digest_matches_reference_on_times():
    trace = Trace()
    trace.record(None, "state", "A", frm="IDLE", to="CONTEND")
    for time in (0, 0, 1, 1, 1.0, 1.0, True, 1, 0.0, -0.0, -0.0, 0.0, 0,
                 float("nan"), float("nan"), float("inf"), float("inf"),
                 2.5, 2.5, 2.5, 1e-300, 1e-300, 2**70, 2**70):
        trace.record(time, "state", "A", frm="IDLE", to="CONTEND")
        trace.record(time, "send", "A", **SEND)
    assert_golden(trace)


def test_zero_then_negative_zero_render_differently():
    plus, minus = Trace(), Trace()
    for trace, second in ((plus, 0.0), (minus, -0.0)):
        trace.record(0.0, "power", "A", on=True)
        trace.record(second, "power", "A", on=True)
        assert_golden(trace)
    assert plus.digest() != minus.digest()


def test_digest_matches_reference_on_detail_shapes():
    trace = Trace()
    reordered_send = dict(reversed(list(SEND.items())))
    reordered_recv = dict(reversed(list(RECV.items())))
    missing_send = {k: v for k, v in SEND.items() if k != "retry"}
    missing_recv = {k: v for k, v in RECV.items() if k != "clean"}
    swapped_send = dict(missing_send, clean=True)  # right size, wrong keys
    swapped_recv = dict(missing_recv, retry=True)
    cases = [
        ("send", SEND), ("send", reordered_send), ("send", missing_send),
        ("send", dict(SEND, extra=1)), ("send", swapped_send), ("send", {}),
        ("recv", RECV), ("recv", reordered_recv), ("recv", missing_recv),
        ("recv", dict(RECV, extra="x")), ("recv", swapped_recv),
        ("state", {"frm": "IDLE", "to": "CONTEND"}),
        ("state", {"to": "CONTEND", "frm": "IDLE"}),
        ("state", {"frm": "IDLE"}),
        ("state", {"frm": "IDLE", "into": "CONTEND"}),
        ("state", {"frm": "IDLE", "to": "CONTEND", "why": "timer"}),
        ("state", {"frm": 1, "to": 2}),
        ("state", {"frm": 1.0, "to": 2.0}),
        ("state", {"frm": True, "to": None}),
        ("power", {"on": False}), ("power", {"on": True}),
        ("drop", {}),
    ]
    for index, (category, detail) in enumerate(cases):
        trace.record(float(index) / 8, category, f"S{index % 3}", **detail)
    assert_golden(trace)


def test_digest_matches_reference_on_value_types():
    trace = Trace()
    for value in (None, True, False, 0, -7, 2**80, 0.1, float("nan"),
                  "it's", 'say "hi"', "a→b", "\\", "", "tab\tnew\nline",
                  ("t", 1), ["l"], {"d": 1}):
        trace.record(1.0, "send", "A", **dict(SEND, esn=value, frame=value))
        trace.record(1.0, "recv", "B", **dict(RECV, src=value, clean=value))
        if isinstance(value, str):
            trace.record(1.0, "state", "A", frm=value, to=value + "→")
        trace.record(1.0, "note", "A", value=value)
    trace.record(2.0, "recv", "P'1", **RECV)
    trace.record(2.0, "send", "P→1", **SEND)
    assert_golden(trace)


def test_digest_matches_reference_across_chunks():
    trace = Trace()
    states = ("IDLE", "CONTEND", "WFCTS", "SendData", "WFACK")
    for step in range(5000):
        time = step // 3 * 0.001
        trace.record(time, "state", f"P{step % 4}",
                     frm=states[step % 5], to=states[(step + 1) % 5])
        trace.record(time, "recv", "B", **dict(RECV, esn=step))
    assert_golden(trace)


def test_digest_matches_reference_after_drops_and_clear():
    trace = Trace(capacity=3)
    for step in range(6):
        trace.record(float(step), "send", "A", **dict(SEND, esn=step))
    assert trace.dropped == 3
    assert_golden(trace)
    trace.clear()
    assert trace.digest() == reference_digest([]) == hashlib.sha256().hexdigest()
    trace.record(0.5, "state", "A", frm="IDLE", to="QUIET")
    assert_golden(trace)


def test_hand_built_records_digest_like_recorded_ones():
    recorded = Trace()
    recorded.record(1.0, "send", "P1", k=1)
    built = [TraceRecord(1.0, "send", "P1", {"k": 1})]
    assert recorded.digest() == reference_digest(built)
    assert TraceRecord(0.0, "drop", "P1").detail == {}
