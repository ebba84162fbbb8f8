"""The sanitizer against its straightforward reference replay.

``check_trace`` resolves profiles once per station and dispatches on the
record category; ``reference_check_trace`` (a frozen copy of the earlier
per-record implementation) must produce the same report — the same
violations in the same order, and the same ``examined`` tally — on real
traces and on mutated traces that trip every violation code.
"""

import random

import pytest

import repro.api as api
from repro.fault.presets import get_preset
from repro.sim.trace import TraceRecord
from repro.topo.builder import Scenario
from repro.verify.conformance import check_trace, profile_for_mac

from tests.verify.conformance_reference import reference_check_trace

ALL_CODES = {
    "non-monotonic-clock",
    "unknown-state",
    "illegal-transition",
    "cts-without-rts",
    "data-without-ds",
    "ack-unsolicited",
    "ack-duplicate-esn",
    "esn-regression",
    "overlapping-transmission",
}

#: (experiment, seed): short sanitized cells under churn-light.  At seed
#: 5 a pad's outage falls inside the 20 s horizon of every cell, so each
#: trace carries power records.
CELLS = (("table2", 5), ("table5", 5), ("table9", 5))


def assert_same_report(records, profiles, bitrate_bps):
    ours = check_trace(records, profiles, bitrate_bps)
    reference = reference_check_trace(records, profiles, bitrate_bps)
    assert ours.violations == reference.violations
    assert list(ours.examined.items()) == list(reference.examined.items())
    return ours


@pytest.fixture(scope="module")
def real_traces():
    """(records, profiles, bitrate) of every scenario the cells ran."""
    captured = []
    original = Scenario.verify

    def verify(self):
        report = original(self)
        profiles = {
            name: profile_for_mac(station.mac)
            for name, station in self.stations.items()
        }
        captured.append((list(self.sim.trace), profiles, self.medium.bitrate_bps))
        return report

    Scenario.verify = verify
    try:
        profile = api.RunProfile(sanitize=True, faults=get_preset("churn-light"))
        for experiment, seed in CELLS:
            api.run(experiment, seed=seed, duration=20.0, warmup=5.0,
                    profile=profile)
    finally:
        Scenario.verify = original
    return captured


def test_real_traces_give_identical_reports(real_traces):
    assert len(real_traces) >= len(CELLS)
    for records, profiles, bitrate in real_traces:
        report = assert_same_report(records, profiles, bitrate)
        assert report.ok, report.render()
        assert {"state", "send", "recv", "power"} <= set(report.examined)


def test_real_traces_without_profiles_give_identical_reports(real_traces):
    for records, profiles, bitrate in real_traces:
        names = sorted(profiles)
        partial = {name: profiles[name] for name in names[::2]}
        assert_same_report(records, partial, bitrate)
        assert_same_report(records, {}, bitrate)


def _mutate(records, rng):
    """One random edit of a record list: the kinds of damage a lossy
    capture, a reordering bug or a misbehaving MAC would leave."""
    records = list(records)
    index = rng.randrange(len(records))
    time, category, station, detail = records[index]
    op = rng.randrange(7)
    if op == 0:  # lose a record
        del records[index]
    elif op == 1:  # record it twice
        records.insert(index, records[index])
    elif op == 2 and index + 1 < len(records):  # reorder a neighbour pair
        records[index], records[index + 1] = records[index + 1], records[index]
    elif op == 3:  # clock skew
        records[index] = TraceRecord(time - rng.choice((1e-3, 1.0)), category,
                                     station, detail)
    elif op == 4 and "esn" in detail:
        esn = detail["esn"]
        shifted = rng.choice((None, 0, 1 if esn is None else esn - 1,
                              1 if esn is None else esn + 1))
        records[index] = TraceRecord(time, category, station,
                                     dict(detail, esn=shifted))
    elif op == 5 and category == "state":
        field = rng.choice(("frm", "to"))
        state = rng.choice(("IDLE", "WFACK", "WFCTS", "BOGUS", "WFData"))
        records[index] = TraceRecord(time, category, station,
                                     dict(detail, **{field: state}))
    elif op == 6 and category in ("send", "recv"):
        field = rng.choice(("kind", "dst", "src", "clean"))
        value = {
            "kind": rng.choice(("RTS", "CTS", "DS", "DATA", "ACK", None)),
            "dst": rng.choice(sorted({r.station for r in records[:50]})),
            "src": rng.choice(sorted({r.station for r in records[:50]})),
            "clean": rng.choice((True, False)),
        }[field]
        records[index] = TraceRecord(time, category, station,
                                     dict(detail, **{field: value}))
    return records


def test_mutated_traces_give_identical_reports(real_traces):
    rng = random.Random(1994)
    seen = set()
    for records, profiles, bitrate in real_traces:
        # A window of a few hundred records keeps each replay cheap.
        start = len(records) // 3
        window = records[start:start + 400]
        for _ in range(60):
            mutated = window
            for _ in range(rng.randint(1, 4)):
                mutated = _mutate(mutated, rng)
            report = assert_same_report(mutated, profiles, bitrate)
            seen.update(report.by_code())
    assert seen == ALL_CODES


def _corrupt_rts(records):
    """Every RTS arrives damaged: the CTS answers lose their trigger."""
    return [
        TraceRecord(r.time, r.category, r.station, dict(r.detail, clean=False))
        if r.category == "recv" and r.detail.get("kind") == "RTS" else r
        for r in records
    ]


def _reboot_after_sends(records):
    """Each sender power-cycles right after a send and sends it again:
    legal only because the reboot forgets the frame still on the air."""
    out = []
    for r in records:
        out.append(r)
        if r.category == "send":
            out.append(TraceRecord(r.time, "power", r.station, {"on": True}))
            out.append(r)
    return out


def _drop(kind, category):
    def edit(records):
        return [r for r in records
                if not (r.category == category and r.detail.get("kind") == kind)]
    return edit


@pytest.mark.parametrize("edit, code", [
    (_corrupt_rts, "cts-without-rts"),
    (_reboot_after_sends, None),
    (_drop("DS", "send"), "data-without-ds"),
    (_drop("DATA", "recv"), "ack-unsolicited"),
])
def test_targeted_edits_give_identical_reports(real_traces, edit, code):
    codes = set()
    for records, profiles, bitrate in real_traces:
        report = assert_same_report(edit(records), profiles, bitrate)
        codes.update(report.by_code())
    if code is None:
        assert "overlapping-transmission" not in codes
    else:
        assert code in codes
