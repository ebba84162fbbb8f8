"""Tests of the benchmark itself: job-level tests at a tiny horizon, CLI tests
at the workload horizon with the shortest measurement.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
from tracer import Patches, Tracer, install_cell_spans, install_service_spans  # noqa: E402
from workloads import WORKLOADS, run_job  # noqa: E402

TINY = dict(duration=4.0, warmup=1.0)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(autouse=True)
def pinned_environment():
    saved = dict(os.environ)
    bench.pin_environment()
    yield
    os.environ.clear()
    os.environ.update(saved)


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_are_valid_and_carry_units():
    manifest = _manifest()
    declared = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert declared == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    names = list(bench.END_TO_END) + list(bench.PER_LAYER)
    assert len(set(names)) == len(names)
    for name, unit in {**bench.END_TO_END, **bench.PER_LAYER}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_another_seed_changes_the_fingerprint(tmp_path):
    office = WORKLOADS["office"]
    first = run_job(office, 1, scratch=str(tmp_path), **TINY)
    again = run_job(office, 1, scratch=str(tmp_path), **TINY)
    other = run_job(office, 2, scratch=str(tmp_path), **TINY)
    assert first.fingerprint == again.fingerprint
    assert first.counts == again.counts
    assert other.fingerprint != first.fingerprint


def test_a_second_sweep_is_not_a_replay(tmp_path):
    sweep = WORKLOADS["sweep"]
    first = run_job(sweep, 0, scratch=str(tmp_path), jobs=1, **TINY)
    second = run_job(sweep, 0, scratch=str(tmp_path), jobs=1, **TINY)
    # Cache hits report a wall time of 0: every cell ran afresh, twice.
    assert len(second.cell_walls) == second.cells == 8
    assert all(wall > 0 for wall in first.cell_walls + second.cell_walls)
    assert second.fingerprint == first.fingerprint
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["office", "sweep"])
def test_traced_and_untraced_runs_agree(tmp_path, name):
    workload = WORKLOADS[name]
    untraced = run_job(workload, 3, scratch=str(tmp_path), jobs=1, **TINY)
    tracer, patches = Tracer(), Patches()
    install_cell_spans(tracer, patches)
    install_service_spans(tracer, patches)
    try:
        traced = run_job(workload, 3, scratch=str(tmp_path), jobs=1, tracer=tracer, **TINY)
    finally:
        patches.restore()
    assert traced.fingerprint == untraced.fingerprint
    assert traced.counts == untraced.counts
    assert tracer.counts["sim.scheduled"] >= untraced.counts["sim.events"]
    for layer in ("sim", "phy", "core", "net", "experiments"):
        assert tracer.self_s(layer) > 0, layer


def test_a_bad_job_fails_its_cells_once():
    run = bench.Run(4)
    good = SimpleNamespace(cells=4, fingerprint="a")
    bad = SimpleNamespace(cells=4, fingerprint="b")
    run.check(good, good, "repeat")
    run.check(bad, good, "traced", "counts differ", "", "span counts differ")
    assert (run.attempted, run.failed) == (8, 4)
    assert len(run.problems) == 1
    assert run.fingerprints == [("repeat", "a"), ("traced", "b")]


def _bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "office", "--seed", "1",
         "--seconds", "0.1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_as_the_last_line(trace):
    proc = _bench(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Each job's fingerprint is printed, so a run can be compared with
    # another commit's run of the same seed.
    assert any(re.match(r"^fingerprint [0-9a-f]{64} repeat seed=1 ", line)
               for line in lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
