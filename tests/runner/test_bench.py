"""Bench baseline logic (no timed benches — those live in benchmarks/)."""

import json

from repro.runner.bench import (
    DEFAULT_TOLERANCE,
    check_against,
    default_baseline_path,
    load_baseline,
    write_baseline,
)


def _results(events_per_sec):
    return {
        "six_pad_cell": {
            "events": 85757, "wall_s": 1.5, "events_per_sec": events_per_sec,
        }
    }


def _baseline(events_per_sec, tolerance=0.25):
    return {"tolerance": tolerance, "benchmarks": _results(events_per_sec)}


def test_within_tolerance_passes():
    assert check_against(_baseline(50_000.0), _results(40_000.0)) == []


def test_beyond_tolerance_fails():
    failures = check_against(_baseline(50_000.0), _results(37_000.0))
    assert len(failures) == 1 and "six_pad_cell" in failures[0]


def test_unknown_bench_is_ignored():
    baseline = {"tolerance": 0.25, "benchmarks": {}}
    assert check_against(baseline, _results(1.0)) == []


def test_write_preserves_frozen_pre_pr_block(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({"pre_pr": {"six_pad_cell": {"wall_s": 2.0}}}))
    write_baseline(path, _results(55_000.0))
    data = load_baseline(path)
    assert data["pre_pr"] == {"six_pad_cell": {"wall_s": 2.0}}
    assert data["benchmarks"] == _results(55_000.0)
    assert data["tolerance"] == DEFAULT_TOLERANCE


def test_committed_baseline_exists_and_documents_the_speedup():
    data = load_baseline(default_baseline_path())
    assert set(data["benchmarks"]) >= {
        "kernel_chain", "timer_cancel", "single_stream_cell",
        "six_pad_cell", "office_cell",
    }
    # The acceptance claim of the first perf PR: the contended six-pad
    # cell runs >= 20% faster than the frozen pre-optimization reference.
    before = data["pre_pr"]["six_pad_cell"]["wall_s"]
    after = data["benchmarks"]["six_pad_cell"]["wall_s"]
    assert after <= 0.8 * before
