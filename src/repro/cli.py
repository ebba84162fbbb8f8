"""Command-line interface: run reproduced experiments.

Usage::

    macaw-sim list
    macaw-sim table5
    macaw-sim table5 --seed 3 --duration 200
    macaw-sim all --duration 200
    macaw-sim all --seeds 0,1,2,3 --jobs 4
    macaw-sim table9 --seeds 8 --jobs 4 --cache --digest
    macaw-sim table2 --metrics --seeds 3 --metrics-out runs/
    macaw-sim table2 --chaos churn-light
    macaw-sim verify-trace table5
    macaw-sim verify-trace all
    macaw-sim chaos --list
    macaw-sim chaos noise-burst --duration 300 --metrics
    macaw-sim analyze src/repro
    macaw-sim analyze src/repro --format sarif --output analysis.sarif
    macaw-sim snapshot table2 --at 50 --store snaps/
    macaw-sim table2 --seeds 0,1,2,3 --warm-start snaps/@50
    macaw-sim sweep table2 table9 --seeds 0,1,2,3 --jobs 4
    macaw-sim sweep table2 --adaptive --epsilon 2.0 --max-seeds 16
    macaw-sim sweep --resume 3f9c2a1b04de
    macaw-sim sweep --list
    macaw-sim diff table2 fig1 --duration 60 --warmup 10
    macaw-sim diff table2 --full --seeds 0,1
    macaw-sim fuzz --budget 25 --seed from-run-id

``--seeds`` accepts either a count (``--seeds 4`` runs seed..seed+3) or an
explicit comma-separated list (``--seeds 0,1,2,3``).  ``--jobs N`` fans the
experiment × seed grid out over N worker processes via
:mod:`repro.runner`; results are byte-identical to a serial run.
``--cache`` memoizes finished cells on disk (keyed by experiment, seed,
bounds, runtime config and a source-tree content hash), and ``--digest``
prints each cell's combined trace digest — the determinism fingerprint.

``--metrics`` instruments every run with the :mod:`repro.obs` probe
catalogue (sampled at ``--metrics-interval`` simulated seconds) without
perturbing determinism; ``--metrics-out DIR`` writes one JSONL file per
cell, ready for ``python -m repro.obs.aggregate`` to band across seeds.

``verify-trace`` runs experiments with the protocol conformance sanitizer
enabled: every station's trace is replayed through the statechart and
dialogue checker (:mod:`repro.verify.conformance`) and any violation is
reported and fails the command.

``snapshot`` pre-warms a keyed snapshot store (one warm-up simulation per
experiment variant, captured at ``--at`` simulated seconds), and
``--warm-start STORE[@T]`` makes every subsequent run fast-forward its
warm-up through that store via :mod:`repro.snapshot` — results are
byte-identical to cold runs, only the repeated warm-up work disappears.

``sweep`` runs the grid as a durable job (:mod:`repro.service`): the
spec is digest-keyed, completed cells append to a chained journal, and
worker death retries with backoff.  ^C drains and journals in-flight
cells and exits 130; ``--resume JOB`` (or re-running the same spec)
replays the journal + cache byte-identically and continues.
``--adaptive --epsilon E`` switches from fixed seeds to sequential
stopping: per experiment, seeds are added until the target metric's CI
half-width drops below E (or ``--max-seeds`` caps it).

``--faults spec.json`` / ``--chaos PRESET`` inject a
:class:`~repro.fault.schedule.FaultSchedule` into every run (link flaps,
noise bursts, station churn — :mod:`repro.fault`); same-seed runs stay
deterministic.  The ``chaos`` subcommand instead runs the degradation
benchmark: clean vs faulted six-pad cells per protocol, reporting how
much throughput and delay MACAW/MACA/CSMA retain under the schedule.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.experiments.base import SeedSweepResult
from repro.experiments.registry import all_experiments, experiment_ids, get_experiment


def _parse_seeds(spec: str, base: int) -> List[int]:
    """Seed list from a ``--seeds`` value: a count, or a comma-joined list.

    Raises ValueError on a malformed value; ``main`` reports it and
    exits 2 like every other usage error.
    """
    if "," in spec:
        seeds = [int(item) for item in spec.split(",") if item.strip()]
        deduped = list(dict.fromkeys(seeds))
        if len(deduped) != len(seeds):
            # Silent double-counting would skew sweep means and pass
            # rates; keep first occurrences, preserve order, say so once.
            print(
                f"macaw-sim: --seeds list {spec!r} contains duplicates; "
                f"running each seed once ({len(deduped)} unique)",
                file=sys.stderr,
            )
        return deduped
    count = int(spec)
    if count < 1:
        raise ValueError(f"--seeds count must be >= 1, got {count}")
    return list(range(base, base + count))


def _add_run_options(parser: argparse.ArgumentParser, seeds: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    if seeds:
        parser.add_argument(
            "--seeds", default="1", metavar="N|A,B,...",
            help="run N seeds (seed..seed+N-1) or an explicit comma-separated "
            "seed list; multiple seeds report means + pass rates",
        )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per run (default: experiment-specific)",
    )
    parser.add_argument(
        "--warmup", type=float, default=None,
        help="seconds excluded from throughput (default 50, as in the paper)",
    )
    parser.add_argument(
        "--no-paper", action="store_true",
        help="hide the paper's reference columns",
    )


def _parse_metrics_interval(spec: str) -> float:
    """Sampling interval from a ``--metrics-interval`` value.

    Raises ValueError (reported as exit 2, like ``--seeds``) on anything
    that is not a positive number.
    """
    try:
        interval = float(spec)
    except ValueError:
        raise ValueError(
            f"--metrics-interval must be a positive number of seconds, got {spec!r}"
        ) from None
    if interval <= 0 or interval != interval or interval == float("inf"):
        raise ValueError(
            f"--metrics-interval must be a positive number of seconds, got {spec!r}"
        )
    return interval


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the experiment × seed grid (default 1)",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print each run's combined trace digest (forces tracing on)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="memoize finished runs on disk (.macaw_cache or $MACAW_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (implies --cache)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="instrument runs with the repro.obs probe catalogue "
        "(per-station backoff/queue/dwell, channel busy fraction, "
        "per-stream load); determinism-neutral",
    )
    parser.add_argument(
        "--metrics-interval", default="1.0", metavar="SECONDS",
        help="sampling cadence in simulated seconds (default 1.0)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write one metrics JSONL file per cell into DIR "
        "(implies --metrics; aggregate sweeps with "
        "'python -m repro.obs.aggregate DIR/*.jsonl')",
    )
    parser.add_argument(
        "--warm-start", default=None, metavar="STORE[@T]",
        help="fast-forward every run's warm-up through the snapshot "
        "store at STORE, branching at T simulated seconds (default 50); "
        "missing snapshots are created on first use ('macaw-sim "
        "snapshot' pre-warms a store).  Results are byte-identical to "
        "cold runs",
    )
    _add_fault_options(parser)


def _parse_warm_start(spec: str):
    """A :class:`WarmStart` from a ``--warm-start STORE[@T]`` value."""
    store, _, at_text = spec.partition("@")
    if not store:
        raise ValueError(f"--warm-start needs a store directory, got {spec!r}")
    at = 50.0
    if at_text:
        try:
            at = float(at_text)
        except ValueError:
            raise ValueError(
                f"--warm-start time must be a number, got {at_text!r}"
            ) from None
    if at <= 0:
        raise ValueError(f"--warm-start time must be > 0, got {at!r}")
    from repro.core.config import WarmStart
    from repro.snapshot import store_digest

    return WarmStart(at=at, store=store, digest=store_digest(store))


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="inject the fault schedule from a JSON spec into every run "
        "(see repro.fault; deterministic per seed)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="PRESET",
        help="inject a named chaos preset ('macaw-sim chaos --list' "
        "shows them); mutually exclusive with --faults",
    )


def _load_schedule(faults_path: Optional[str], chaos_name: Optional[str]):
    """The fault schedule the flags ask for, or None.

    Raises ValueError on conflicting flags, unknown presets, or an
    unreadable/invalid spec file — reported as exit 2 by the callers.
    """
    if faults_path is not None and chaos_name is not None:
        raise ValueError("--faults and --chaos are mutually exclusive")
    if chaos_name is not None:
        from repro.fault.presets import get_preset

        return get_preset(chaos_name)
    if faults_path is not None:
        from repro.fault import FaultSchedule

        try:
            return FaultSchedule.from_file(faults_path)
        except OSError as exc:
            raise ValueError(f"cannot read --faults spec: {exc}") from None
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macaw-sim",
        description="MACAW (SIGCOMM '94) reproduction: run the paper's experiments.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all', 'list', or 'verify-trace'",
    )
    _add_run_options(parser)
    _add_runner_options(parser)
    return parser


def _resolve_experiments(selector: str) -> Optional[list]:
    """Experiments named by ``selector`` ('all' or an id); None if unknown."""
    if selector == "all":
        return all_experiments()
    try:
        return [get_experiment(selector)]
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


def _cmd_verify_trace(argv: List[str]) -> int:
    """Run experiments under the conformance sanitizer; nonzero on violations."""
    from repro.verify.conformance import ConformanceError
    from repro.verify.runtime import sanitized

    parser = argparse.ArgumentParser(
        prog="macaw-sim verify-trace",
        description="Replay experiment traces through the protocol "
        "conformance sanitizer.",
    )
    parser.add_argument(
        "experiment", help="experiment id (see 'list'), or 'all'",
    )
    _add_run_options(parser, seeds=False)
    args = parser.parse_args(argv)

    experiments = _resolve_experiments(args.experiment)
    if experiments is None:
        return 2

    clean = True
    for exp in experiments:
        with sanitized(True) as stats:
            try:
                exp.run(seed=args.seed, duration=args.duration, warmup=args.warmup)
            except ConformanceError as exc:
                clean = False
                print(f"{exp.spec.exp_id:24} CONFORMANCE VIOLATIONS")
                print(exc.report.render())
                continue
        print(
            f"{exp.spec.exp_id:24} OK "
            f"({stats.records} trace records, {stats.runs} scenario runs)"
        )
    return 0 if clean else 1


def _cmd_chaos(argv: List[str]) -> int:
    """Degradation benchmark: clean vs faulted runs per protocol."""
    parser = argparse.ArgumentParser(
        prog="macaw-sim chaos",
        description="Compare protocol throughput/delay with and without a "
        "fault schedule (six-pad cell, Figure 3 topology).",
    )
    parser.add_argument(
        "preset", nargs="?", default=None,
        help="chaos preset name (see --list); or use --faults SPEC.json",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC.json",
        help="fault schedule from a JSON spec instead of a preset",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the known presets and exit",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--duration", type=float, default=300.0,
        help="simulated seconds per run (default 300)",
    )
    parser.add_argument(
        "--warmup", type=float, default=50.0,
        help="seconds excluded from measurements (default 50)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="instrument the faulted runs (fault.* probes included)",
    )
    parser.add_argument(
        "--metrics-interval", default="1.0", metavar="SECONDS",
        help="sampling cadence in simulated seconds (default 1.0)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="DIR",
        help="write the faulted runs' metrics JSONL into DIR "
        "(implies --metrics)",
    )
    args = parser.parse_args(argv)

    from repro.fault.presets import preset_names

    if args.list:
        for name in preset_names():
            print(name)
        return 0
    try:
        metrics_interval = _parse_metrics_interval(args.metrics_interval)
        schedule = _load_schedule(args.faults, args.preset)
    except ValueError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 2
    if schedule is None:
        print(
            f"macaw-sim: chaos needs a preset ({', '.join(preset_names())}) "
            "or --faults SPEC.json",
            file=sys.stderr,
        )
        return 2
    if args.warmup >= args.duration:
        print("macaw-sim: --warmup must precede --duration", file=sys.stderr)
        return 2
    metrics_on = args.metrics or args.metrics_out is not None

    from repro.fault.report import run_degradation

    report = run_degradation(
        schedule,
        seed=args.seed,
        duration=args.duration,
        warmup=args.warmup,
        metrics=metrics_interval if metrics_on else None,
    )
    print(report.render())
    if args.metrics_out is not None and report.metrics:
        from pathlib import Path

        from repro.obs.export import write_jsonl

        directory = Path(args.metrics_out)
        directory.mkdir(parents=True, exist_ok=True)
        for protocol, dump in report.metrics.items():
            path = directory / f"chaos_{protocol}_seed{args.seed}.metrics.jsonl"
            write_jsonl(path, [dump], meta={
                "exp": f"chaos:{args.preset or args.faults}",
                "seed": args.seed,
                "duration": args.duration,
                "interval": metrics_interval,
            })
        print(f"metrics: {len(report.metrics)} faulted runs -> {directory}/")
    return 0


def _cmd_snapshot(argv: List[str]) -> int:
    """Pre-warm a snapshot store: one warm-up per experiment variant.

    Runs the selected experiments with a warm-start profile pointed at
    ``--store``; every scenario variant a cell builds lands one keyed
    ``*.snap`` file at ``--at`` simulated seconds.  Later sweeps passing
    ``--warm-start STORE[@T]`` then restore instead of re-simulating the
    warm-up.
    """
    parser = argparse.ArgumentParser(
        prog="macaw-sim snapshot",
        description="Capture warm-up snapshots for experiments into a "
        "keyed store (see --warm-start).",
    )
    parser.add_argument(
        "experiment", help="experiment id (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--at", type=float, default=50.0, metavar="T",
        help="simulated seconds to capture at (default 50, the paper's "
        "warm-up horizon)",
    )
    parser.add_argument(
        "--store", default=".macaw_snapshots", metavar="DIR",
        help="snapshot store directory (default .macaw_snapshots)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--seeds", default="1", metavar="N|A,B,...",
        help="seed count or explicit comma-separated list (as for runs)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per warming run (default: --at + 10)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (atomic store writes make this safe)",
    )
    _add_fault_options(parser)
    args = parser.parse_args(argv)

    experiments = _resolve_experiments(args.experiment)
    if experiments is None:
        return 2
    try:
        seeds = _parse_seeds(args.seeds, args.seed)
        schedule = _load_schedule(args.faults, args.chaos)
        if args.at <= 0:
            raise ValueError(f"--at must be > 0, got {args.at!r}")
    except ValueError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 2
    duration = args.duration if args.duration is not None else args.at + 10.0
    if duration <= args.at:
        print("macaw-sim: --duration must exceed --at", file=sys.stderr)
        return 2

    from pathlib import Path

    from repro.core.config import RunProfile, WarmStart
    from repro.runner import expand_cells, run_cells

    try:
        profile = RunProfile(
            faults=schedule,
            # Warm traced: the snapshot then carries the t<T records a
            # --digest or sanitized sweep needs, and warm_key treats
            # "traced however it was forced" as one key, so this store
            # serves traced and digest-collecting runs alike.  Untraced
            # sweeps warm their own (cheaper) snapshots on first use.
            trace=True,
            warm_start=WarmStart(at=args.at, store=args.store),
        )
    except ValueError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
    cells = expand_cells(
        [exp.spec.exp_id for exp in experiments], seeds,
        duration=duration, warmup=0.0,
    )
    run_cells(cells, jobs=args.jobs, profile=profile)
    elapsed = time.perf_counter() - started  # repro-lint: allow=REPRO102

    store = Path(args.store)
    snaps = sorted(store.glob("*.snap")) if store.is_dir() else []
    print(f"{len(snaps)} snapshot(s) in {store}/ at t={args.at:g} "
          f"({len(cells)} warming cells, {elapsed:.1f}s wall)")
    for snap in snaps:
        print(f"  {snap.name}")
    return 0


def _cmd_sweep(argv: List[str]) -> int:
    """Durable, resumable sweep jobs (the repro.service orchestrator).

    A sweep is journaled under ``--job-dir/<job_id>/``: every completed
    cell appends to a digest-chained JSONL journal, so ``--resume JOB``
    (or simply re-running the same spec) replays completed cells from
    the journal + result cache and continues byte-identically.  ^C
    drains in-flight workers, journals them, and exits 130.
    """
    parser = argparse.ArgumentParser(
        prog="macaw-sim sweep",
        description="Run a durable experiment × seed sweep job with "
        "journaled resume, worker-death retry, and optional adaptive "
        "(CI-driven) seed allocation.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment ids (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--resume", default=None, metavar="JOB",
        help="resume the job with this id (or unambiguous id prefix, or "
        "a path to a job directory); the saved spec wins over spec flags",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_jobs",
        help="list the jobs under --job-dir and exit",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--seeds", default=None, metavar="N|A,B,...",
        help="fixed allocation: a count (seed..seed+N-1) or an explicit "
        "comma-separated list (default 3; exclusive with --adaptive)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="sequential stopping: per experiment, keep adding seeds "
        "until the target metric's CI half-width is below --epsilon "
        "(or --max-seeds is hit)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=None, metavar="PPS",
        help="target CI half-width in metric units (required with "
        "--adaptive)",
    )
    parser.add_argument(
        "--metric", default="total", metavar="SPEC",
        help="stopping metric: 'total' (default) or 'variant:NAME'",
    )
    parser.add_argument(
        "--min-seeds", type=int, default=3, metavar="N",
        help="adaptive: seeds to run before the first CI decision "
        "(default 3)",
    )
    parser.add_argument(
        "--max-seeds", type=int, default=32, metavar="N",
        help="adaptive: hard cap per experiment (default 32)",
    )
    parser.add_argument(
        "--step", type=int, default=1, metavar="N",
        help="adaptive: seeds added per round (default 1)",
    )
    parser.add_argument(
        "--confidence", type=float, default=0.95,
        help="adaptive: CI confidence level, 0.95 or 0.99 (default 0.95)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per run (default: experiment-specific)",
    )
    parser.add_argument(
        "--warmup", type=float, default=None,
        help="seconds excluded from throughput",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes; purely a speed knob — the digest set is "
        "identical at any value (default 1)",
    )
    parser.add_argument(
        "--job-dir", default=None, metavar="DIR",
        help="where job journals live (default .macaw_jobs)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default .macaw_cache or "
        "$MACAW_CACHE_DIR; the service always caches — resume "
        "rematerializes full results from it)",
    )
    parser.add_argument(
        "--no-digest", action="store_true",
        help="skip per-cell trace digests (faster; forfeits the "
        "resume byte-equality fingerprint)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="worker-death retries per cell before the job fails "
        "(default 2)",
    )
    parser.add_argument(
        "--backoff", type=float, default=None, metavar="SECONDS",
        help="retry backoff base; retry N waits backoff * 2^(N-1) "
        "(default 0.5)",
    )
    # Deterministic interruption for tests and the CI resume smoke:
    # stop scheduling after N fresh cells, exit as if ^C'd.
    parser.add_argument(
        "--stop-after", type=int, default=None, help=argparse.SUPPRESS,
    )
    _add_fault_options(parser)
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.core.config import RunProfile
    from repro.runner import ResultCache
    from repro.service import (
        DEFAULT_BACKOFF_S,
        DEFAULT_JOB_DIR,
        DEFAULT_RETRIES,
        AdaptiveSeeds,
        CellFailure,
        FixedSeeds,
        Job,
        JobSpec,
        JournalError,
        WorkerDeath,
        find_job,
        run_job,
    )

    job_dir = args.job_dir if args.job_dir is not None else DEFAULT_JOB_DIR

    if args.list_jobs:
        root = Path(job_dir)
        entries = sorted(
            entry for entry in (root.iterdir() if root.is_dir() else [])
            if (entry / "spec.json").exists()
        )
        if not entries:
            print(f"no jobs under {root}/")
            return 0
        for entry in entries:
            try:
                job = Job.load(entry)
            except (ValueError, KeyError) as exc:
                print(f"{entry.name}  (unreadable spec: {exc})")
                continue
            status, cells = _job_journal_summary(job)
            policy = job.spec.policy.to_dict()
            policy_text = (
                f"seeds={len(policy['seeds'])}" if policy["kind"] == "fixed"
                else f"adaptive eps={policy['epsilon']:g}"
            )
            print(f"{job.job_id}  {status:<12} {cells:>4} cells  "
                  f"{policy_text:<20} {','.join(job.spec.experiments)}")
        return 0

    if args.jobs < 1:
        print("macaw-sim: --jobs must be >= 1", file=sys.stderr)
        return 2

    if args.resume is not None:
        if args.experiments or args.seeds or args.adaptive:
            print("macaw-sim: --resume takes no spec flags (the saved "
                  "spec wins)", file=sys.stderr)
            return 2
        try:
            spec = find_job(args.resume, job_dir).spec
        except (FileNotFoundError, ValueError) as exc:
            print(f"macaw-sim: {exc}", file=sys.stderr)
            return 2
    else:
        if not args.experiments:
            print("macaw-sim: sweep needs experiment ids, --resume JOB, "
                  "or --list", file=sys.stderr)
            return 2
        if args.experiments == ["all"]:
            exp_ids = experiment_ids()
        else:
            exp_ids = args.experiments
            for exp_id in exp_ids:
                try:
                    get_experiment(exp_id)
                except KeyError as exc:
                    print(exc.args[0], file=sys.stderr)
                    return 2
        try:
            if args.adaptive:
                if args.seeds is not None:
                    raise ValueError(
                        "--seeds and --adaptive are mutually exclusive"
                    )
                if args.epsilon is None:
                    raise ValueError("--adaptive requires --epsilon")
                policy = AdaptiveSeeds(
                    epsilon=args.epsilon, metric=args.metric,
                    min_seeds=args.min_seeds, max_seeds=args.max_seeds,
                    step=args.step, base_seed=args.seed,
                    confidence=args.confidence,
                )
            else:
                seeds = _parse_seeds(args.seeds or "3", args.seed)
                policy = FixedSeeds(seeds=tuple(seeds))
            schedule = _load_schedule(args.faults, args.chaos)
            profile = RunProfile(faults=schedule)
            spec = JobSpec(
                experiments=tuple(exp_ids), policy=policy, profile=profile,
                duration=args.duration, warmup=args.warmup,
                collect_digests=not args.no_digest,
            )
        except ValueError as exc:
            print(f"macaw-sim: {exc}", file=sys.stderr)
            return 2

    cache = ResultCache(args.cache_dir)
    print(f"job {spec.job_id} -> {Path(job_dir) / spec.job_id}/ "
          f"(jobs={args.jobs})")

    def on_event(kind: str, payload: dict) -> None:
        if kind == "cell":
            note = f" ({payload['attempts']} attempts)" \
                if payload["attempts"] > 1 else ""
            print(f"  [{payload['done']:>3}] {payload['exp']} "
                  f"seed {payload['seed']}: {payload['wall_s']:.2f}s"
                  f"{note}")
        elif kind == "stop":
            print(f"  {payload['exp']}: stopped after {payload['n']} "
                  f"seeds ({payload['reason']})")
        elif kind == "interrupt":
            print(f"\nmacaw-sim: interrupted — draining "
                  f"{payload['drain']} in-flight cell(s), journaling; "
                  "^C again to terminate", file=sys.stderr)

    started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
    try:
        job = run_job(
            spec, jobs=args.jobs, job_dir=job_dir, cache=cache,
            retries=args.retries if args.retries is not None
            else DEFAULT_RETRIES,
            backoff_s=args.backoff if args.backoff is not None
            else DEFAULT_BACKOFF_S,
            on_event=on_event, stop_after=args.stop_after,
        )
    except KeyboardInterrupt:
        print("macaw-sim: sweep terminated", file=sys.stderr)
        return 130
    except JournalError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 1
    except (WorkerDeath, CellFailure) as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started  # repro-lint: allow=REPRO102

    failed = sum(1 for o in job.outcomes if o.failed_checks)
    print(f"\njob {job.job_id}: {job.status} — {len(job.outcomes)} cells "
          f"({job.executed} executed, {job.replayed} replayed, "
          f"{job.retries} worker retries, {failed} with failed checks) "
          f"in {elapsed:.1f}s wall")
    for exp_id, stop in job.stops.items():
        half = stop["half_width"]
        half_text = f", CI half-width {half:.3g}" if half is not None else ""
        print(f"  {exp_id}: {stop['n']} seeds ({stop['reason']}{half_text})")
    if spec.collect_digests:
        print(f"  digest set: {job.digest_set()}")
    if job.interrupted:
        print(f"  resume with: macaw-sim sweep --resume {job.job_id}"
              + (f" --job-dir {job_dir}" if args.job_dir is not None else ""))
        return 130
    return 0


def _job_journal_summary(job) -> tuple:
    """(status, completed-cell count) from a job's journal, for --list."""
    from repro.service import JournalError

    try:
        records = job.journal().load()
    except JournalError:
        return "corrupt", 0
    cells = sum(1 for r in records if r.get("kind") == "cell")
    status = "running"
    for record in reversed(records):
        if record.get("kind") in ("complete", "interrupted"):
            status = record["kind"]
            break
    return status, cells


def _report_metrics(outcomes: list, out_dir: Optional[str],
                    interval: float) -> None:
    """Write (or summarize) the metrics series a sweep shipped back."""
    series_total = sum(
        len(dump.get("series", [])) for o in outcomes for dump in o.metrics
    )
    if out_dir is None:
        print(f"metrics: {series_total} series collected at {interval:g}s cadence "
              "(pass --metrics-out DIR to save JSONL)")
        return
    from pathlib import Path

    from repro.obs.export import write_jsonl

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for outcome in outcomes:
        if not outcome.metrics:
            continue
        path = directory / (
            f"{outcome.cell.exp_id}_seed{outcome.cell.seed}.metrics.jsonl"
        )
        write_jsonl(path, outcome.metrics, meta={
            "exp": outcome.cell.exp_id,
            "seed": outcome.cell.seed,
            "duration": outcome.cell.duration,
            "interval": interval,
        })
        written.append(path.name)
    print(f"metrics: {series_total} series -> {directory}/ "
          f"({len(written)} files)")


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "verify-trace":
        return _cmd_verify_trace(raw[1:])
    if raw and raw[0] == "chaos":
        return _cmd_chaos(raw[1:])
    if raw and raw[0] == "analyze":
        from repro.verify.analysis.cli import main as analysis_main

        return analysis_main(raw[1:])
    if raw and raw[0] == "snapshot":
        return _cmd_snapshot(raw[1:])
    if raw and raw[0] == "sweep":
        return _cmd_sweep(raw[1:])
    if raw and raw[0] == "diff":
        from repro.verify.diff.cli import main_diff

        return main_diff(raw[1:])
    if raw and raw[0] == "fuzz":
        from repro.verify.diff.cli import main_fuzz

        return main_fuzz(raw[1:])

    args = _build_parser().parse_args(raw)

    if args.experiment == "list":
        for exp_id in experiment_ids():
            exp = get_experiment(exp_id)
            print(f"{exp_id:24} {exp.spec.title}")
        return 0

    experiments = _resolve_experiments(args.experiment)
    if experiments is None:
        return 2

    try:
        seeds = _parse_seeds(args.seeds, args.seed)
    except ValueError as exc:
        message = str(exc)
        if "--seeds" not in message:
            message = f"invalid --seeds value {args.seeds!r}"
        print(f"macaw-sim: {message}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("macaw-sim: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        metrics_interval = _parse_metrics_interval(args.metrics_interval)
    except ValueError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 2
    metrics_on = args.metrics or args.metrics_out is not None
    try:
        schedule = _load_schedule(args.faults, args.chaos)
        warm_start = (
            _parse_warm_start(args.warm_start)
            if args.warm_start is not None else None
        )
    except ValueError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 2

    from repro.core.config import RunProfile
    from repro.runner import ResultCache, expand_cells, run_cells

    # The one profile of the invocation: it flows through run_cells into
    # every cell, serially or across the worker pool.
    try:
        profile = RunProfile(
            metrics=metrics_interval if metrics_on else None,
            faults=schedule,
            warm_start=warm_start,
        )
    except ValueError as exc:
        print(f"macaw-sim: {exc}", file=sys.stderr)
        return 2

    cache = (
        ResultCache(args.cache_dir)
        if (args.cache or args.cache_dir is not None)
        else None
    )

    started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
    cells = expand_cells(
        [exp.spec.exp_id for exp in experiments], seeds,
        duration=args.duration, warmup=args.warmup,
    )
    outcomes = run_cells(cells, jobs=args.jobs, cache=cache,
                         collect_digests=args.digest, profile=profile)
    elapsed = time.perf_counter() - started  # repro-lint: allow=REPRO102

    if metrics_on:
        _report_metrics(outcomes, args.metrics_out, metrics_interval)

    grouped: Dict[str, list] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.cell.exp_id, []).append(outcome)

    all_passed = True
    for exp in experiments:
        rows = grouped.get(exp.spec.exp_id, [])
        if not rows:  # pragma: no cover - run_cells returns every cell
            continue
        if len(rows) > 1:
            sweep = SeedSweepResult(spec=exp.spec, results=[r.result for r in rows])
            print(sweep.mean_table().render(show_paper=not args.no_paper))
            rates = sweep.check_pass_rates()
            for name, rate in rates.items():
                print(f"  [{rate:4.0%}] {name}")
            all_passed = all_passed and all(r == 1.0 for r in rates.values())
        else:
            result = rows[0].result
            print(result.table.render(show_paper=not args.no_paper))
            for name, ok in result.checks.items():
                print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
            all_passed = all_passed and result.passed
        if args.digest:
            for row in rows:
                print(f"  digest seed {row.cell.seed}: {row.digest}")
        detail = f"{len(rows)} run{'s' if len(rows) != 1 else ''}"
        cached = sum(1 for row in rows if row.cached)
        if cached:
            detail += f", {cached} cached"
        first = rows[0].result
        print(f"  ({first.duration:g}s simulated, seed {rows[0].cell.seed}; {detail})")
        print()

    summary = f"{len(outcomes)} cells in {elapsed:.1f}s wall (jobs={args.jobs}"
    if cache is not None:
        summary += f", cache: {cache.hits} hits / {cache.misses} misses"
    print(summary + ")")
    return 0 if all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
