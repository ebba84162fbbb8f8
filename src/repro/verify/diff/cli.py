"""``macaw-sim diff`` / ``macaw-sim fuzz`` — the differential front doors.

``diff`` sweeps registered experiments across the execution-mode matrix
and localizes any digest mismatch; ``fuzz`` searches generated scenarios
for one.  Both write a minimal-repro JSON on failure and exit 1, so CI
can gate on them and archive the repro as an artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.registry import all_experiments, get_experiment
from repro.verify.diff.fuzz import (
    DEFAULT_CASE_DURATION_S,
    experiment_repro,
    run_fuzz,
    write_repro,
)
from repro.verify.diff.bisect import BisectError, locate_first_divergence
from repro.verify.diff.modes import default_matrix, full_matrix
from repro.verify.diff.oracle import DiffOracle

__all__ = ["main_diff", "main_fuzz"]


def _parse_seed_list(spec: str, base: int) -> List[int]:
    if "," in spec:
        return [int(item) for item in spec.split(",") if item.strip()]
    count = int(spec)
    if count < 1:
        raise ValueError(f"--seeds count must be >= 1, got {count}")
    return list(range(base, base + count))


def main_diff(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="macaw-sim diff",
        description="Differential execution oracle: run experiments under "
        "a matrix of execution modes (jobs x snapshot-roundtrip x "
        "metrics) and require byte-identical "
        "digests; bisect any mismatch to its first divergent event.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help="experiment ids (see 'macaw-sim list'), or 'all'",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--seeds", default="1", metavar="N|A,B,...",
        help="seed count (seed..seed+N-1) or explicit comma list",
    )
    parser.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: experiment default)")
    parser.add_argument("--warmup", type=float, default=None,
                        help="warm-up seconds (default: experiment default)")
    parser.add_argument("--full", action="store_true",
                        help="full 8-point cross product instead of the "
                        "baseline-plus-one-axis covering matrix")
    parser.add_argument("--no-bisect", action="store_true",
                        help="report digest mismatches without localizing")
    parser.add_argument("--out", default="diff-repro.json", metavar="PATH",
                        help="where the minimal-repro JSON lands on failure")
    args = parser.parse_args(argv)

    exp_ids: List[str] = []
    for name in args.experiments:
        if name == "all":
            exp_ids.extend(exp.spec.exp_id for exp in all_experiments())
            continue
        try:
            get_experiment(name)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        exp_ids.append(name)

    try:
        seeds = _parse_seed_list(args.seeds, args.seed)
        modes = full_matrix() if args.full else default_matrix()
        oracle = DiffOracle(
            exp_ids, seeds=seeds, duration=args.duration,
            warmup=args.warmup, modes=modes,
        )
    except ValueError as exc:
        print(f"macaw-sim diff: {exc}", file=sys.stderr)
        return 2

    print(f"diff: {len(oracle.cells)} cell(s) x {len(oracle.modes)} mode(s) "
          f"[{', '.join(mode.label for mode in oracle.modes)}]")
    report = oracle.check()
    for mode in report.modes:
        digests = report.digests[mode.label]
        print(f"  {mode.label:16} {len([d for d in digests if d])} digest(s)")
    if report.ok:
        print("diff: all modes byte-identical")
        return 0

    for divergence in report.divergences:
        print(f"diff: DIVERGENCE {divergence.describe()}", file=sys.stderr)
    first = report.divergences[0]
    point = None
    if not args.no_bisect and first.cell is not None:
        print(f"diff: bisecting {first.cell.exp_id} seed {first.cell.seed} "
              f"({first.mode_a.label} vs {first.mode_b.label})...")
        try:
            point = locate_first_divergence(
                oracle.replayer(first.cell, first.mode_a),
                oracle.replayer(first.cell, first.mode_b),
                first.cell.duration,
            )
        except BisectError as exc:
            print(f"diff: bisection aborted: {exc}", file=sys.stderr)
        if point is not None:
            print(f"diff: first divergent event: scenario "
                  f"{point.scenario_index} seq {point.event_index} "
                  f"at t={point.time} (horizon {point.horizon:.6f}, "
                  f"{point.probes} probes)")
        else:
            print("diff: divergence did not reproduce in-process "
                  "(likely jobs-axis only)", file=sys.stderr)
    payload = experiment_repro(
        first.cell.exp_id, first.cell.seed, first.cell.duration,
        first.cell.warmup, oracle.profile, first, point,
    )
    out = write_repro(args.out, payload)
    print(f"diff: repro written to {out}", file=sys.stderr)
    return 1


def main_fuzz(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="macaw-sim fuzz",
        description="Scenario fuzzer: generate random topologies, traffic "
        "mixes and fault schedules, run each under the execution-mode "
        "matrix, and shrink + bisect the first divergence.",
    )
    parser.add_argument("--budget", type=int, default=25,
                        help="number of generated cases (default 25)")
    parser.add_argument(
        "--seed", default="0", metavar="S|from-run-id",
        help="fuzz universe seed; 'from-run-id' uses $GITHUB_RUN_ID so "
        "every CI run explores a fresh slice",
    )
    parser.add_argument("--duration", type=float,
                        default=DEFAULT_CASE_DURATION_S,
                        help="simulated seconds per case")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip greedy shrinking of a failing case")
    parser.add_argument("--out", default="fuzz-repro.json", metavar="PATH",
                        help="where the minimal-repro JSON lands on failure")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    args = parser.parse_args(argv)

    if args.seed == "from-run-id":
        seed = int(os.environ.get("GITHUB_RUN_ID", "0") or "0")
    else:
        try:
            seed = int(args.seed)
        except ValueError:
            print(f"macaw-sim fuzz: --seed must be an integer or "
                  f"'from-run-id', got {args.seed!r}", file=sys.stderr)
            return 2
    if args.budget < 1:
        print(f"macaw-sim fuzz: --budget must be >= 1, got {args.budget}",
              file=sys.stderr)
        return 2

    modes = default_matrix()
    print(f"fuzz: seed {seed}, budget {args.budget}, "
          f"{args.duration}s cases, modes "
          f"[{', '.join(mode.label for mode in modes)}]")
    progress = None if args.quiet else (lambda message: print(f"fuzz: {message}"))
    failure = run_fuzz(
        budget=args.budget, seed=seed, duration=args.duration,
        modes=modes, shrink=not args.no_shrink, progress=progress,
    )
    if failure is None:
        print(f"fuzz: {args.budget} case(s) passed the mode matrix clean")
        return 0

    print(f"fuzz: DIVERGENCE in case {failure.index}: "
          f"{failure.divergence.describe()}", file=sys.stderr)
    print(f"fuzz: shrunk case: {failure.shrunk.describe()}", file=sys.stderr)
    if failure.point is not None:
        print(f"fuzz: first divergent event: seq "
              f"{failure.point.event_index} at t={failure.point.time} "
              f"(horizon {failure.point.horizon:.6f})", file=sys.stderr)
    out = write_repro(args.out, failure.repro)
    print(f"fuzz: repro written to {out}", file=sys.stderr)
    return 1
