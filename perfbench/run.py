"""The repository benchmark: one workload, measured for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload office|contention|sweep \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the next job starts when
the previous one ends (see ``perfbench/README.md``).  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` makes
untraced/traced job pairs plus one counting pass (``cProfile``) and
reports the per-layer metrics.  Either way every job's output is checked
against the first job's fingerprint.  Human-readable lines come first;
the last line of standard output is the JSON result.  Span aggregates
and a copy of every result go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh interpreters timed for ``setup_s`` before each timed job and
#: after the last.  Host speed drifts over seconds, so launches spread
#: across the run give a steadier median than one batch of them.
SETUP_LAUNCHES_PER_JOB = 3
#: Horizon of the warm-up job that loads every code path before timing.
WARMUP_HORIZON = (4.0, 1.0)

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count", "sim.scheduled": "count", "sim.cancel_frac": "ratio",
    "sim.self_s": "s", "py.calls_per_event": "calls/event",
    "phy.tx": "count", "phy.deliveries": "count", "phy.fanout": "ratio",
    "phy.clean_frac": "ratio", "phy.busy_frac": "ratio", "phy.self_s": "s",
    "core.rts": "count", "core.success_frac": "ratio", "core.cts_timeouts": "count",
    "core.overheard": "count", "core.self_s": "s",
    "mac.rts": "count", "mac.success_frac": "ratio", "mac.self_s": "s",
    "net.offered": "count", "net.delivered": "count", "net.delivery_frac": "ratio",
    "net.tcp_retx": "count", "net.self_s": "s",
    "topo.build_s": "s", "topo.stations": "count",
    "experiments.self_s": "s", "experiments.paper_gap": "ratio",
    "experiments.check_pass_frac": "ratio",
    "sim.trace_records": "count", "sim.digest_s": "s",
    "verify.sanitize_s": "s", "verify.records": "count",
    "obs.samples": "count", "obs.self_s": "s",
    "fault.injected": "count", "fault.self_s": "s",
    "service.cells": "count", "service.cell_s": "s", "service.parallel_eff": "ratio",
    "runner.cache_put_s": "s", "runner.cache_get_s": "s",
    "service.journal_s": "s", "service.resume_s": "s",
    "trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pin_environment() -> None:
    """Drop ambient knobs so the workload runs exactly as defined."""
    for name in list(os.environ):
        if name.startswith("REPRO_") or name == "MACAW_CACHE_DIR":
            del os.environ[name]


def setup_times(root: str, workload: str, seed: int, scratch: str,
                launches: int) -> List[float]:
    """Set-up times of ``launches`` fresh interpreters, one after another."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               workload, str(seed), scratch]
    times = []
    for _ in range(launches):
        start = time.monotonic()
        proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


class Run:
    """Cells attempted and failed, and whether every output check held."""

    def __init__(self, cells_per_job: int) -> None:
        self.cells_per_job = cells_per_job
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: (which job, fingerprint) of every checked job, in order.
        self.fingerprints: List[Tuple[str, str]] = []

    def fail(self, cells: int, problem: str) -> None:
        self.failed += cells
        self.problems.append(problem)

    def job(self, fn: Any, *args: Any, **kwargs: Any) -> Optional[Any]:
        """Run one job; an exception fails its cells and returns None."""
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed job is reported, the run still ends cleanly
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.cells_per_job
            self.fail(self.cells_per_job, "a job raised")
            return None

    def check(self, result: Any, reference: Any, what: str, *problems: str) -> None:
        """Count one finished job, failing its cells once if its output
        fingerprint differs from ``reference`` or any ``problems`` is set."""
        self.attempted += result.cells
        self.fingerprints.append((what, result.fingerprint))
        found = [problem for problem in problems if problem]
        if result.fingerprint != reference.fingerprint:
            found.insert(0, "output fingerprint differs")
        if found:
            self.fail(result.cells, f"{what}: " + "; ".join(found))


def python_calls(profile: cProfile.Profile) -> int:
    """Python-level function calls seen by the profiler (builtins excluded)."""
    stats = pstats.Stats(profile)
    return sum(entry[1] for key, entry in stats.stats.items()  # type: ignore[attr-defined]
               if key[0] != "~")


def end_to_end(root: str, wl: Any, seed: int, seconds: float, scratch: str,
               run: Run) -> Dict[str, float]:
    from workloads import peak_rss_mb, run_job

    # The first launch only warms the file cache; it is not counted.
    setup_times(root, wl.name, seed, scratch, 1)
    run.job(run_job, wl, seed, scratch=scratch,
            duration=WARMUP_HORIZON[0], warmup=WARMUP_HORIZON[1])
    results = []
    setup: List[float] = []
    start = perf_counter()
    while len(results) < 2 or perf_counter() - start < seconds:
        setup += setup_times(root, wl.name, seed, scratch, SETUP_LAUNCHES_PER_JOB)
        result = run.job(run_job, wl, seed, scratch=scratch)
        if result is None:
            break
        run.check(result, results[0] if results else result, "repeat")
        results.append(result)
    if not results:
        return {}
    setup += setup_times(root, wl.name, seed, scratch, SETUP_LAUNCHES_PER_JOB)
    first = results[0]
    _report_quality(first, run, len(results))
    print("job wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in results))
    print(f"setup launches: {len(setup)}")
    return {
        "wall_s": statistics.median(r.wall_s for r in results),
        "cpu_s": statistics.median(r.cpu_s for r in results),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def _report_quality(result: Any, run: Run, jobs: int) -> None:
    print(f"jobs measured: {jobs} ({result.cells} cells each)")
    print(f"fail_frac {_ratio(run.failed, run.attempted)!r} ratio "
          f"({run.failed} failed of {run.attempted} cells)")
    print(f"paper_gap {statistics.fmean(result.paper_gaps)!r} ratio (simulated)")
    print(f"qualitative checks passed: {result.checks - result.checks_failed}/{result.checks}")


def per_layer(wl: Any, seed: int, seconds: float, scratch: str, run: Run,
              spans_path: str) -> Dict[str, float]:
    from tracer import Patches, Tracer, install_cell_spans, install_service_spans
    from workloads import run_job

    # Cell-internal spans need the cells in this process: the sweep's
    # traced pairs run at jobs=1, its parent-side pass below at jobs=2.
    inline = 1 if wl.sweep_jobs else None
    base = dict(scratch=scratch, jobs=inline)

    def traced_job(install: Any, **kwargs: Any) -> Tuple[Any, Any]:
        tracer, patches = Tracer(), Patches()
        for installer in install:
            installer(tracer, patches)
        try:
            return run_job(wl, seed, tracer=tracer, **kwargs), tracer
        finally:
            patches.restore()

    run.job(run_job, wl, seed, scratch=scratch,
            duration=WARMUP_HORIZON[0], warmup=WARMUP_HORIZON[1], jobs=inline)
    plain, traced, tracers = [], [], []
    cell_spans = [install_cell_spans] + ([install_service_spans] if wl.sweep_jobs else [])
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced = run.job(run_job, wl, seed, **base)
        pair = run.job(traced_job, cell_spans, **base)
        if untraced is None or pair is None:
            return {}
        reference = plain[0] if plain else untraced
        spans = tracers[0].counts if tracers else pair[1].counts
        run.check(untraced, reference, "repeat",
                  "counts differ from the first job's"
                  if untraced.counts != reference.counts else "")
        run.check(pair[0], reference, "traced",
                  "counts differ from the untraced job's"
                  if pair[0].counts != untraced.counts else "",
                  "span counts differ from the first traced job's"
                  if pair[1].counts != spans else "")
        plain.append(untraced)
        traced.append(pair[0])
        tracers.append(pair[1])

    profile = cProfile.Profile()
    counted = run.job(run_job, wl, seed, profiler=profile, **base)
    if counted is None:
        return {}
    run.check(counted, plain[0], "counting pass")

    service: Dict[str, float] = dict.fromkeys(
        ("service.cells", "service.cell_s", "service.parallel_eff", "runner.cache_put_s",
         "runner.cache_get_s", "service.journal_s", "service.resume_s"), 0.0)
    service_summary = None
    if wl.sweep_jobs:
        pair = run.job(traced_job, [install_service_spans], scratch=scratch)
        if pair is None:
            return {}
        swept, tracer = pair
        run.check(swept, plain[0], "parallel sweep")
        cold_s = swept.wall_s - swept.resume_s
        service.update({
            "service.cells": swept.cells,
            "service.cell_s": statistics.median(swept.cell_walls),
            "service.parallel_eff": _ratio(sum(swept.cell_walls), wl.sweep_jobs * cold_s),
            "runner.cache_put_s": tracer.total_s(("runner", "cache_put")),
            "runner.cache_get_s": tracer.total_s(("runner", "cache_get")),
            "service.journal_s": (tracer.total_s(("service", "journal_append"))
                                  + tracer.total_s(("service", "journal_load"))),
            "service.resume_s": swept.resume_s,
        })
        service_summary = tracer.summary()

    counts = plain[0].counts
    spans = tracers[0].counts

    def c(name: str) -> float:
        return counts.get(name, 0)

    def self_s(layer: str) -> float:
        return statistics.median(t.self_s(layer) for t in tracers)

    def total_s(key: Tuple[str, str]) -> float:
        return statistics.median(t.total_s(key) for t in tracers)

    scheduled = spans.get("sim.scheduled", 0)
    first = plain[0]
    metrics = {
        "sim.events": c("sim.events"),
        "sim.scheduled": scheduled,
        "sim.cancel_frac": _ratio(scheduled - c("sim.events"), scheduled),
        "sim.self_s": self_s("sim"),
        "py.calls_per_event": _ratio(python_calls(profile), counted.counts.get("sim.events", 0)),
        "phy.tx": c("phy.tx"),
        "phy.deliveries": c("phy.deliveries"),
        "phy.fanout": _ratio(c("phy.deliveries"), c("phy.tx")),
        "phy.clean_frac": _ratio(c("phy.clean"), c("phy.deliveries")),
        "phy.busy_frac": _ratio(c("phy.busy_s"), c("sim.time_s")),
        "phy.self_s": self_s("phy"),
        "core.rts": c("core.rts"),
        "core.success_frac": _ratio(c("core.successes"), c("core.rts")),
        "core.cts_timeouts": c("core.cts_timeouts"),
        "core.overheard": spans.get("core.overheard", 0),
        "core.self_s": self_s("core"),
        "mac.rts": c("mac.rts"),
        "mac.success_frac": _ratio(c("mac.successes"), c("mac.rts")),
        "mac.self_s": self_s("mac"),
        "net.offered": c("net.offered"),
        "net.delivered": c("net.delivered"),
        "net.delivery_frac": _ratio(c("net.delivered"), c("net.offered")),
        "net.tcp_retx": c("net.tcp_retx"),
        "net.self_s": self_s("net"),
        "topo.build_s": total_s(("topo", "build")),
        "topo.stations": c("topo.stations"),
        "experiments.self_s": self_s("experiments"),
        "experiments.paper_gap": statistics.fmean(first.paper_gaps),
        "experiments.check_pass_frac": _ratio(first.checks - first.checks_failed, first.checks),
        "sim.trace_records": c("sim.trace_records"),
        "sim.digest_s": total_s(("sim", "digest")),
        "verify.sanitize_s": total_s(("verify", "sanitize")),
        "verify.records": c("verify.records"),
        "obs.samples": c("obs.samples"),
        "obs.self_s": self_s("obs"),
        "fault.injected": c("fault.injected"),
        "fault.self_s": self_s("fault"),
        **service,
        "trace_overhead": (statistics.median(t.wall_s for t in traced)
                           / statistics.median(p.wall_s for p in plain) - 1.0),
    }
    _report_quality(first, run, len(plain))
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"cells": tracers[0].summary(), "service": service_summary},
                  handle, indent=1)
    print(f"spans: {os.path.relpath(spans_path)}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "api.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.runner.cache import code_version
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    meta = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "code_version": code_version(),
    }
    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    run = Run(wl.seeds_per_job * len(wl.experiments))
    try:
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.json")
            metrics = per_layer(wl, args.seed, args.seconds, scratch, run, spans_path)
            units = PER_LAYER
        else:
            metrics = end_to_end(root, wl, args.seed, args.seconds, scratch, run)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not metrics:
        print("perfbench: the run did not complete", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]!r} {unit}")
    for what, fingerprint in run.fingerprints:
        print(f"fingerprint {fingerprint} {what} seed={args.seed} "
              f"code_version={meta['code_version']}")
    for problem in run.problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**meta, "fingerprints": run.fingerprints, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
