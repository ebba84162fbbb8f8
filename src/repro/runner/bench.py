"""Engine micro-benchmarks with a committed JSON baseline.

Measures the simulator machinery itself — bare kernel event throughput,
a cancel-dominated timer workload, and three saturated MACAW cells —
and compares events/sec against the committed
``benchmarks/BENCH_engine.json``:

* ``python -m repro.runner.bench`` runs the benches and prints a table;
* ``--write`` refreshes the ``benchmarks`` block of the baseline in place
  (run on a quiet machine);
* ``--check`` re-runs the benches and fails (exit 1) when any bench falls
  more than ``tolerance`` (default 25%) below its committed row — the CI
  regression gate.  The benches run with
  metrics off, so ``--check`` is also the metrics-off overhead gate.
* ``--overhead`` times the six-pad cell with metrics off vs. on
  (1 s cadence) and verifies both runs fire identical event counts —
  the determinism contract measured, not assumed.
* ``--warm-start`` times the six-pad cell cold vs. restored from a
  mid-run checkpoint (``repro.snapshot``) and verifies both agree on the
  horizon event count; ``--write`` folds the numbers into the baseline's
  ``warm_start`` section, which is informational — never gated.
* ``--sweep`` runs Table 2 through the service orchestrator once with a
  fixed 8-seed allocation and once under adaptive (CI-driven) stopping,
  reporting the cells and wall time the adaptive policy saved;
  ``--write`` folds the numbers into the baseline's ``sweep`` section —
  informational, never gated.
* ``--profile FILE`` runs the bench table under cProfile and
  dumps the stats to FILE (inspect with ``python -m pstats FILE``).

Each bench row keeps the *best* wall time (least interrupted — the
number the events/sec figure and the gate use) and the *median* across
repeats (robust to one noisy neighbour; a large best/median gap flags an
unquiet machine, not a code change).

The baseline file also keeps a frozen ``pre_pr`` section: the numbers the
engine produced before the first performance PR, kept so the speedup
claim stays auditable.  ``--write`` never touches it.

Wall-clock timing here is intentional and exempt from the determinism
lint (REPRO102): benches measure the host, not the simulation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer

#: Relative events/sec drop that fails ``--check`` (0.25 = 25% slower).
DEFAULT_TOLERANCE = 0.25

#: Timed repeats per bench; the best (least-interrupted) run is kept.
DEFAULT_REPEATS = 3

_BASELINE_NAME = "BENCH_engine.json"


def default_baseline_path() -> Path:
    """``benchmarks/BENCH_engine.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "benchmarks" / _BASELINE_NAME


# --------------------------------------------------------------------- benches

def _bench_kernel_chain() -> int:
    """Schedule-and-fire cost of the bare event loop (50k chained events)."""
    sim = Simulator()

    def chain(n: int) -> None:
        if n:
            sim.schedule(0.001, chain, n - 1)

    chain(50_000)
    sim.run()
    return sim.events_fired


def _bench_timer_cancel() -> int:
    """Cancel-dominated churn: 10k far-horizon timers rearmed 40 times.

    The MACAW-shaped worst case for a heap: nearly every operation is a
    rearm of a live far-future timer, so the pending set stays large
    while dead entries pile up and every push pays a full-depth sift.
    Fired events are deliberately scarce — the returned count is the
    number of *rearm operations*.
    """
    sim = Simulator()
    timers = [Timer(sim, lambda: None) for _ in range(10_000)]
    ops = 0

    def rearm_round(rounds: int) -> None:
        nonlocal ops
        for index, timer in enumerate(timers):
            timer.start(5.0 + (index % 7) * 0.9)
        ops += len(timers)
        if rounds:
            sim.schedule(0.05, rearm_round, rounds - 1)

    rearm_round(40)
    sim.run(until=3.0)  # horizon before any expiry: pure rearm traffic
    return ops


def _bench_single_stream() -> int:
    """One saturated MACAW stream, 100 s simulated."""
    from repro.topo.figures import single_stream_cell

    builder = single_stream_cell(protocol="macaw", seed=1)
    return builder.build().run(100.0).sim.events_fired


def _bench_six_pad() -> int:
    """The contended six-pad MACAW cell of Figure 3, 100 s simulated."""
    from repro.topo.figures import fig3_six_pads

    builder = fig3_six_pads(protocol="macaw", seed=1)
    return builder.build().run(100.0).sim.events_fired


def _bench_office_cell() -> int:
    """The large office cell of Figure 11 (Table 11 topology), 60 s simulated."""
    from repro.topo.figures import fig11_office

    builder = fig11_office(protocol="macaw", seed=1)
    return builder.build().run(60.0).sim.events_fired


BENCHES: List[Tuple[str, Callable[[], int]]] = [
    ("kernel_chain", _bench_kernel_chain),
    ("timer_cancel", _bench_timer_cancel),
    ("single_stream_cell", _bench_single_stream),
    ("six_pad_cell", _bench_six_pad),
    ("office_cell", _bench_office_cell),
]


def _timed_rows(
    runs: List[Tuple[str, Callable[[], int]]], repeats: int
) -> Dict[str, Dict[str, float]]:
    """Run each labelled thunk ``repeats`` times; best + median wall per row."""
    results: Dict[str, Dict[str, float]] = {}
    for name, fn in runs:
        walls: List[float] = []
        events = 0
        for _ in range(max(1, repeats)):
            started = time.perf_counter()  # repro-lint: allow=REPRO102 (bench)
            events = fn()
            walls.append(time.perf_counter() - started)  # repro-lint: allow=REPRO102
        best = min(walls)
        results[name] = {
            "events": events,
            "wall_s": round(best, 4),
            "median_s": round(statistics.median(walls), 4),
            "events_per_sec": round(events / best, 1),
        }
    return results


def run_benches(repeats: int = DEFAULT_REPEATS) -> Dict[str, Dict[str, float]]:
    """Run every bench; keep each bench's best wall time."""
    return _timed_rows(BENCHES, repeats)


def measure_metrics_overhead(repeats: int = DEFAULT_REPEATS) -> Dict[str, Dict[str, float]]:
    """Six-pad cell with metrics off vs. on (1 s cadence), best-of-repeats.

    Raises RuntimeError if the two runs fire different event counts —
    instrumentation must be invisible to the event stream.
    """
    from repro.topo.figures import fig3_six_pads

    def run(metrics: object) -> int:
        builder = fig3_six_pads(protocol="macaw", seed=1)
        builder.metrics = metrics
        return builder.build().run(100.0).sim.events_fired

    results = _timed_rows(
        [
            ("metrics_off", lambda: run(False)),
            ("metrics_on", lambda: run(1.0)),
        ],
        repeats,
    )
    if results["metrics_off"]["events"] != results["metrics_on"]["events"]:
        raise RuntimeError(
            "metrics instrumentation changed the event stream: "
            f"{results['metrics_off']['events']:.0f} events off vs "
            f"{results['metrics_on']['events']:.0f} on"
        )
    return results


def measure_warm_start(
    repeats: int = DEFAULT_REPEATS, at: float = 50.0, horizon: float = 100.0
) -> Dict[str, Dict[str, float]]:
    """Cold vs snapshot-warm-started six-pad runs, best-of-repeats.

    ``cold`` simulates the full [0, horizon]; ``warm`` restores the
    checkpoint at ``at`` from a per-call store (the store is primed once,
    unmeasured) and simulates only [at, horizon].  Because restore is
    byte-identical to running through, ``events`` reports the events each
    run actually *fired in-process* — the warm row's reduction is the
    whole speedup.  Raises RuntimeError if the two runs disagree on the
    total event count at the horizon (the restore invariant, measured).
    Informational only: the ``--check`` gate never walks this section.
    """
    import tempfile

    from repro.core.config import WarmStart
    from repro.topo.figures import fig3_six_pads

    totals: Dict[str, int] = {}

    def run(warm: Optional[WarmStart], label: str) -> int:
        builder = fig3_six_pads(protocol="macaw", seed=1)
        if warm is not None:
            builder.profile = builder.profile.but(warm_start=warm)
        scenario = builder.build().run(horizon)
        totals[label] = scenario.sim.events_fired
        skipped = 0
        info = scenario.warm_start_info
        if info is not None and info.get("restored"):
            skipped = int(info["events_at_branch"])
        return scenario.sim.events_fired - skipped

    with tempfile.TemporaryDirectory() as store:
        warm = WarmStart(at=at, store=store)
        run(warm, "prime")  # populate the store; first build pays the warm-up
        results = _timed_rows(
            [
                ("cold_run", lambda: run(None, "cold")),
                ("warm_start_run", lambda: run(warm, "warm")),
            ],
            repeats,
        )
    if totals["cold"] != totals["warm"]:
        raise RuntimeError(
            "warm-started run diverged from cold run: "
            f"{totals['cold']} events at the horizon vs {totals['warm']}"
        )
    return results


def measure_sweep_savings(
    exp_id: str = "table2",
    fixed_seeds: int = 8,
    epsilon: float = 2.0,
    min_seeds: int = 3,
    duration: float = 40.0,
    warmup: float = 5.0,
) -> Dict[str, Dict[str, float]]:
    """Adaptive (CI-driven) seed allocation vs a fixed sweep, measured.

    Runs ``exp_id`` twice through the service orchestrator into
    throwaway job dirs with cold caches: once with a fixed
    ``fixed_seeds``-seed allocation, once under sequential stopping
    (:class:`~repro.service.policy.AdaptiveSeeds`, same cap).  Reports
    cells executed and wall time per strategy — the cells the adaptive
    policy *didn't* run are the point.  Informational only: the
    ``--check`` gate never walks this section, and the stop point is a
    property of the experiment's seed noise, not of engine speed.
    """
    import tempfile

    from repro.runner import ResultCache
    from repro.service import AdaptiveSeeds, FixedSeeds, JobSpec, run_job

    policies = {
        "fixed_sweep": FixedSeeds(seeds=tuple(range(fixed_seeds))),
        "adaptive_sweep": AdaptiveSeeds(
            epsilon=epsilon, min_seeds=min_seeds, max_seeds=fixed_seeds,
        ),
    }
    rows: Dict[str, Dict[str, float]] = {}
    with tempfile.TemporaryDirectory() as root:
        for label, policy in policies.items():
            spec = JobSpec(
                experiments=(exp_id,), policy=policy,
                duration=duration, warmup=warmup, collect_digests=False,
            )
            started = time.perf_counter()  # repro-lint: allow=REPRO102 (bench)
            job = run_job(
                spec,
                job_dir=Path(root) / f"jobs-{label}",
                cache=ResultCache(str(Path(root) / f"cache-{label}")),
            )
            wall = time.perf_counter() - started  # repro-lint: allow=REPRO102 (bench)
            stop = job.stops.get(exp_id, {})
            row: Dict[str, float] = {
                "cells": float(len(job.outcomes)),
                "wall_s": round(wall, 4),
            }
            if label == "adaptive_sweep":
                row["epsilon"] = epsilon
                if stop.get("half_width") is not None:
                    row["half_width"] = round(stop["half_width"], 4)
            rows[label] = row
    return rows


# -------------------------------------------------------------- baseline file

def load_baseline(path: Path) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_baseline(
    path: Path,
    results: Dict[str, Dict[str, float]],
    warm_start: Optional[Dict[str, Dict[str, float]]] = None,
    sweep: Optional[Dict[str, Dict[str, float]]] = None,
) -> None:
    """Write the measured baseline, preserving any frozen ``pre_pr`` block.

    ``results`` fills the ``benchmarks`` block the ``--check`` gate walks.
    ``warm_start`` and ``sweep`` record informational sections — the
    checkpoint-restore speedup and the adaptive-vs-fixed seed-allocation
    savings — never gated (``check_against`` does not walk them).
    """
    data: Dict = {
        "schema": 2,
        "tolerance": DEFAULT_TOLERANCE,
        "note": (
            "Engine micro-benchmark baseline. 'benchmarks' is refreshed by "
            "`python -m repro.runner.bench --write`. 'pre_pr' is the frozen "
            "pre-optimization reference and is never rewritten. 'warm_start' "
            "records the informational checkpoint-restore speedup (six-pad "
            "cell, snapshot at t=50 of 100) and 'sweep' the adaptive-vs-fixed "
            "seed-allocation savings (table2 via the service orchestrator); "
            "neither is gated by --check."
        ),
    }
    previous: Dict = {}
    if path.exists():
        try:
            previous = load_baseline(path)
        except (OSError, json.JSONDecodeError):
            previous = {}
        if "pre_pr" in previous:
            data["pre_pr"] = previous["pre_pr"]
        if "tolerance" in previous:
            data["tolerance"] = previous["tolerance"]
    data["benchmarks"] = results
    if warm_start is not None:
        data["warm_start"] = warm_start
    elif "warm_start" in previous:
        data["warm_start"] = previous["warm_start"]
    if sweep is not None:
        data["sweep"] = sweep
    elif "sweep" in previous:
        data["sweep"] = previous["sweep"]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_against(
    baseline: Dict, results: Dict[str, Dict[str, float]]
) -> List[str]:
    """Regression messages; empty when every bench is within tolerance."""
    tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    committed = baseline.get("benchmarks", {})
    failures: List[str] = []
    for name, current in results.items():
        reference = committed.get(name)
        if reference is None:
            continue
        floor = reference["events_per_sec"] * (1.0 - tolerance)
        if current["events_per_sec"] < floor:
            failures.append(
                f"{name}: {current['events_per_sec']:,.0f} events/sec "
                f"is below {floor:,.0f} (baseline "
                f"{reference['events_per_sec']:,.0f} - {tolerance:.0%} "
                "tolerance)"
            )
    return failures


def _render(results: Dict[str, Dict[str, float]]) -> str:
    lines = [
        f"{'bench':24} {'events':>10} {'wall (s)':>10} {'median (s)':>11} "
        f"{'events/sec':>12}"
    ]
    for name, row in results.items():
        median = row.get("median_s", row["wall_s"])
        lines.append(
            f"{name:24} {row['events']:>10,.0f} {row['wall_s']:>10.3f} "
            f"{median:>11.3f} {row['events_per_sec']:>12,.0f}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.bench",
        description="Engine micro-benchmarks vs the committed baseline.",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline JSON (default: benchmarks/{_BASELINE_NAME})",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="timed repeats per bench; the best run is kept",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true",
        help="refresh the baseline file with this machine's numbers",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="fail if any bench regresses beyond tolerance",
    )
    mode.add_argument(
        "--overhead", action="store_true",
        help="time the six-pad cell with metrics off vs on and verify "
        "identical event counts",
    )
    mode.add_argument(
        "--warm-start", action="store_true",
        help="time the six-pad cell cold vs restored from a mid-run "
        "checkpoint and verify identical horizon event counts",
    )
    mode.add_argument(
        "--sweep", action="store_true",
        help="run table2 once with a fixed 8-seed allocation and once "
        "under adaptive (CI-driven) stopping; report cells and wall "
        "time saved",
    )
    mode.add_argument(
        "--profile", default=None, metavar="FILE",
        help="run the bench table under cProfile and dump "
        "stats to FILE (inspect with 'python -m pstats FILE')",
    )
    args = parser.parse_args(argv)

    if args.overhead:
        try:
            overhead = measure_metrics_overhead(repeats=args.repeats)
        except RuntimeError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)  # repro-lint: allow=REPRO107 (bench CLI output)
            return 1
        print(_render(overhead))  # repro-lint: allow=REPRO107 (bench CLI output)
        off = overhead["metrics_off"]["events_per_sec"]
        on = overhead["metrics_on"]["events_per_sec"]
        print(f"\nmetrics-on overhead: {(off / on - 1.0):+.1%} "  # repro-lint: allow=REPRO107 (bench CLI output)
              f"(identical {overhead['metrics_off']['events']:,.0f} events)")
        return 0

    if args.warm_start:
        try:
            rows = measure_warm_start(repeats=args.repeats)
        except RuntimeError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)  # repro-lint: allow=REPRO107 (bench CLI output)
            return 1
        print(_render(rows))  # repro-lint: allow=REPRO107 (bench CLI output)
        cold = rows["cold_run"]
        warm = rows["warm_start_run"]
        print(  # repro-lint: allow=REPRO107 (bench CLI output)
            f"\nwarm start: {warm['events']:,.0f} of {cold['events']:,.0f} "
            f"events simulated ({1.0 - warm['events'] / cold['events']:.0%} "
            f"skipped), wall {cold['wall_s']:.3f}s -> {warm['wall_s']:.3f}s"
        )
        return 0

    if args.sweep:
        rows = measure_sweep_savings()
        fixed = rows["fixed_sweep"]
        adaptive = rows["adaptive_sweep"]
        for label, row in rows.items():
            extra = ""
            if "half_width" in row:
                extra = (f"  (CI half-width {row['half_width']:.3g} <= "
                         f"epsilon {row['epsilon']:g})")
            print(f"{label:<24} {row['cells']:>6.0f} cells "  # repro-lint: allow=REPRO107 (bench CLI output)
                  f"{row['wall_s']:>8.3f}s{extra}")
        saved = fixed["cells"] - adaptive["cells"]
        print(  # repro-lint: allow=REPRO107 (bench CLI output)
            f"\nadaptive stopping: {saved:.0f} of {fixed['cells']:.0f} "
            f"cells skipped ({saved / fixed['cells']:.0%}), wall "
            f"{fixed['wall_s']:.3f}s -> {adaptive['wall_s']:.3f}s"
        )
        return 0

    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        results = run_benches(repeats=args.repeats)
        profiler.disable()
        profiler.dump_stats(args.profile)
        print(_render(results))  # repro-lint: allow=REPRO107 (bench CLI output)
        print(f"\nprofile stats written to {args.profile}")  # repro-lint: allow=REPRO107 (bench CLI output)
        return 0

    path = args.baseline if args.baseline is not None else default_baseline_path()

    if args.write or args.check:
        results = run_benches(repeats=args.repeats)
        print(_render(results))  # repro-lint: allow=REPRO107 (bench CLI output)
        print()  # repro-lint: allow=REPRO107 (bench CLI output)
        if args.write:
            warm_rows = measure_warm_start(repeats=args.repeats)
            print("-- warm start (informational)")  # repro-lint: allow=REPRO107 (bench CLI output)
            print(_render(warm_rows))  # repro-lint: allow=REPRO107 (bench CLI output)
            sweep_rows = measure_sweep_savings()
            print("-- adaptive sweep (informational)")  # repro-lint: allow=REPRO107 (bench CLI output)
            for label, row in sweep_rows.items():
                print(f"   {label}: {row['cells']:.0f} cells, "  # repro-lint: allow=REPRO107 (bench CLI output)
                      f"{row['wall_s']:.3f}s")
            write_baseline(path, results, warm_start=warm_rows,
                           sweep=sweep_rows)
            print(f"baseline written to {path}")  # repro-lint: allow=REPRO107 (bench CLI output)
            return 0
        try:
            baseline = load_baseline(path)
        except OSError as exc:
            print(f"cannot read baseline {path}: {exc}", file=sys.stderr)  # repro-lint: allow=REPRO107 (bench CLI output)
            return 2
        failures = check_against(baseline, results)
        if failures:
            print("REGRESSION:", file=sys.stderr)  # repro-lint: allow=REPRO107 (bench CLI output)
            for message in failures:
                print(f"  {message}", file=sys.stderr)  # repro-lint: allow=REPRO107 (bench CLI output)
            return 1
        print("all benches within tolerance of the committed baseline")  # repro-lint: allow=REPRO107 (bench CLI output)
        return 0

    results = run_benches(repeats=args.repeats)
    print(_render(results))  # repro-lint: allow=REPRO107 (bench CLI output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
