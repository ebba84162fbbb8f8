"""The benchmark's workloads, one job of each, and the job's output check.

A *job* is one closed-loop request: regenerate the workload's tables
through the public API (``repro.api.run`` / ``repro.api.sweep``) and
return how long it took, what it produced and a fingerprint of that
output.  The benchmark repeats a job with the same seed, so every repeat
(and the traced pass) must return the same fingerprint.
"""

from __future__ import annotations

import cProfile
import dataclasses
import hashlib
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.api as api
from repro.core.macaw import MacawMac
from repro.fault.presets import get_preset
from repro.mac.frames import FrameType
from repro.net.tcp import TcpStream
from repro.topo.builder import Scenario

from tracer import Patches, Tracer, module_layer


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    duration: float
    warmup: float
    #: Seeds per job; job seeds are ``seed * seeds_per_job + i``.
    seeds_per_job: int
    #: Worker processes of a ``repro.api.sweep`` job; 0 runs each
    #: (experiment, seed) through ``repro.api.run`` in this process.
    sweep_jobs: int = 0

    def seeds(self, seed: int) -> List[int]:
        return [seed * self.seeds_per_job + i for i in range(self.seeds_per_job)]

    def profile(self) -> api.RunProfile:
        """Hooks off, or every hook on for the sweep.

        Built per call: a profile resolves the ambient queue backend when
        constructed, so it must be made after the environment is pinned.
        """
        if self.sweep_jobs:
            return api.RunProfile(metrics=1.0, sanitize=True,
                                  faults=get_preset("churn-light"))
        return api.RunProfile(metrics=False, sanitize=False)


WORKLOADS: Dict[str, Workload] = {
    "office": Workload("office", ("table11",), duration=30.0, warmup=6.0,
                       seeds_per_job=4),
    "contention": Workload("contention", ("table2",), duration=50.0, warmup=10.0,
                           seeds_per_job=4),
    "sweep": Workload("sweep", ("table9", "table5"), duration=30.0, warmup=5.0,
                      seeds_per_job=4, sweep_jobs=2),
}


class OutputMismatch(RuntimeError):
    """A job's output differs from what the same inputs produced before."""


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    fingerprint: str
    #: Table regenerations (one per experiment and seed) the job ran.
    cells: int
    checks: int
    checks_failed: int
    #: Σ|sim − paper| / Σ paper of each regenerated table.
    paper_gaps: List[float]
    #: Public-state counts of the scenarios run in this process.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Sweep only: ``CellResult.wall_s`` of each fresh cell, and the
    #: wall time of the resume pass.
    cell_walls: List[float] = field(default_factory=list)
    resume_s: float = 0.0


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def paper_gap(table: api.ComparisonTable) -> float:
    num = den = 0.0
    for variant, refs in table.paper.items():
        for stream, ref in refs.items():
            num += abs(table.value(variant, stream) - ref)
            den += ref
    return num / den


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Capture:
    """Counts and fingerprint material from every scenario run in a job.

    Read right after each ``Scenario.run`` returns, so no scenario (or
    its trace) outlives its experiment driver.
    """

    def __init__(self, profiler: Optional[cProfile.Profile] = None) -> None:
        self.counts: Dict[str, float] = {}
        self._hasher = hashlib.sha256()
        #: Paused while a scenario is read, so a counting pass counts
        #: the program's calls only.
        self._profiler = profiler

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fingerprint(self) -> str:
        return self._hasher.hexdigest()

    def note(self, scenario: Scenario) -> None:
        sim, medium, add = scenario.sim, scenario.medium, self.add
        self._hasher.update(f"events={sim.events_fired}\n".encode("ascii"))
        add("sim.events", sim.events_fired)
        add("sim.time_s", sim.now)
        add("sim.trace_records", len(sim.trace))
        add("phy.busy_s", medium.busy_seconds())
        add("phy.clean", medium.clean_deliveries)
        add("phy.deliveries", medium.clean_deliveries + medium.corrupt_deliveries)
        add("topo.stations", len(scenario.stations))
        for name, station in scenario.stations.items():
            stats = station.mac.stats
            add("phy.tx", sum(stats.sent.values()))
            # core.*: stations running the exchange machine of repro.core
            # (MACAW and MACA alike); mac.*: stations of the baseline
            # classes defined in repro.mac (MACA, CSMA, polling).
            layers = [layer for layer, member in (
                ("core", isinstance(station.mac, MacawMac)),
                ("mac", module_layer(type(station.mac).__module__) == "mac"),
            ) if member]
            for layer in layers:
                add(f"{layer}.rts", stats.sent_of(FrameType.RTS))
                add(f"{layer}.successes", stats.successes)
                add(f"{layer}.cts_timeouts", stats.cts_timeouts)
            self._hasher.update(f"{name}:{_stats_text(stats)}\n".encode("utf-8"))
        for stream_id, stream in scenario.streams.items():
            add("net.offered", stream.counters()["offered"])
            add("net.delivered", len(scenario.recorder.flow(stream_id).times))
            if isinstance(stream, TcpStream):
                add("net.tcp_retx", stream.retransmissions)
        if scenario.fault_injector is not None:
            add("fault.injected", sum(scenario.fault_injector.injected.values()))
        if scenario.metrics is not None:
            add("obs.samples", scenario.metrics.sampler.samples_taken)
        if scenario.conformance is not None:
            add("verify.records", sum(scenario.conformance.examined.values()))

    def install(self, patches: Patches) -> None:
        def make(run: Callable[..., Any]) -> Callable[..., Any]:
            def captured(scenario: Scenario, duration: float) -> Scenario:
                out = run(scenario, duration)
                if self._profiler is not None:
                    self._profiler.disable()
                try:
                    self.note(scenario)
                finally:
                    if self._profiler is not None:
                        self._profiler.enable()
                return out

            return captured

        patches.wrap(Scenario, "run", make)


def _stats_text(stats: Any) -> str:
    parts = []
    for item in dataclasses.fields(stats):
        value = getattr(stats, item.name)
        if isinstance(value, dict):
            value = sorted((kind.value, n) for kind, n in value.items())
        parts.append(f"{item.name}={value!r}")
    return ";".join(parts)


def _timed_call(tracer: Optional[Tracer], profiler: Optional[cProfile.Profile],
                key: Tuple[str, str], fn: Callable[..., Any],
                *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
    """``fn(*args, **kwargs)`` with its wall and CPU time; a span named
    ``key`` when traced, and profiled when a profiler is given."""
    if tracer is not None:
        fn, args = tracer.call, (key, fn, *args)
    if profiler is not None:
        fn, args = profiler.runcall, (fn, *args)
    cpu = cpu_seconds()
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start, cpu_seconds() - cpu


def run_job(workload: Workload, seed: int, *, scratch: str,
            duration: Optional[float] = None, warmup: Optional[float] = None,
            jobs: Optional[int] = None, tracer: Optional[Tracer] = None,
            profiler: Optional[cProfile.Profile] = None) -> JobResult:
    """Run one job of ``workload``.

    ``tracer`` puts the public API calls in spans (the layer spans are
    installed by the caller); ``profiler`` profiles each API call.
    ``scratch`` holds the sweep's job directory and result cache for the
    length of the job.
    """
    duration = workload.duration if duration is None else duration
    warmup = workload.warmup if warmup is None else warmup
    capture = Capture(profiler)
    patches = Patches()
    capture.install(patches)
    try:
        if workload.sweep_jobs:
            result = _sweep_job(workload, seed, duration, warmup,
                                workload.sweep_jobs if jobs is None else jobs,
                                tracer, profiler, scratch)
        else:
            result = _table_job(workload, seed, duration, warmup, tracer, profiler)
    finally:
        patches.restore()
    result.counts = capture.counts
    # A sweep's cells run in worker processes, out of the capture's
    # reach: its digest set stands for the scenarios' state instead.
    if not workload.sweep_jobs:
        result.fingerprint = _sha(result.fingerprint + capture.fingerprint())
    return result


def _table_job(workload: Workload, seed: int, duration: float, warmup: float,
               tracer: Optional[Tracer],
               profiler: Optional[cProfile.Profile]) -> JobResult:
    profile = workload.profile()
    job = JobResult(wall_s=0.0, cpu_s=0.0, fingerprint="", cells=0, checks=0,
                    checks_failed=0, paper_gaps=[])
    tables = []
    for run_seed in workload.seeds(seed):
        for exp_id in workload.experiments:
            result, wall, cpu = _timed_call(
                tracer, profiler, ("bench", "api.run"), api.run,
                exp_id, seed=run_seed, duration=duration, warmup=warmup,
                profile=profile,
            )
            job.wall_s += wall
            job.cpu_s += cpu
            job.cells += 1
            job.checks += len(result.checks)
            job.checks_failed += sum(1 for ok in result.checks.values() if not ok)
            job.paper_gaps.append(paper_gap(result.table))
            tables.append(f"{exp_id}:{run_seed}:{_sha(result.table.render())}")
    job.fingerprint = _sha("\n".join(tables))
    return job


def _sweep_fingerprint(job: api.Job) -> str:
    lines = [job.digest_set()]
    for outcome in job.outcomes:
        lines.append(f"{outcome.cell.exp_id}:{outcome.cell.seed}:{outcome.digest}:"
                     f"{_sha(outcome.result.table.render())}")
    return _sha("\n".join(lines))


def _sweep_job(workload: Workload, seed: int, duration: float, warmup: float,
               jobs: int, tracer: Optional[Tracer],
               profiler: Optional[cProfile.Profile], scratch: str) -> JobResult:
    seeds = workload.seeds(seed)
    cells = len(seeds) * len(workload.experiments)
    directory = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        cache_dir = os.path.join(directory, "cache")
        spec = dict(seeds=seeds, duration=duration, warmup=warmup,
                    profile=workload.profile(), jobs=jobs,
                    job_dir=os.path.join(directory, "jobs"))
        cold, wall, cpu = _timed_call(
            tracer, profiler, ("service", "sweep"), api.sweep,
            list(workload.experiments), cache=api.ResultCache(cache_dir), **spec,
        )
        resume, resume_wall, resume_cpu = _timed_call(
            tracer, profiler, ("service", "resume"), api.sweep,
            list(workload.experiments), cache=api.ResultCache(cache_dir), **spec,
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if cold.status != "complete" or cold.executed != cells or cold.replayed:
        raise OutputMismatch(
            f"cold sweep was not a fresh run: status {cold.status}, "
            f"{cold.executed} executed, {cold.replayed} replayed of {cells}")
    if resume.executed or resume.replayed != cells:
        raise OutputMismatch(
            f"resume pass re-executed cells: {resume.executed} executed, "
            f"{resume.replayed} replayed of {cells}")
    fingerprint = _sweep_fingerprint(cold)
    if resume.digest_set() != cold.digest_set() or _sweep_fingerprint(resume) != fingerprint:
        raise OutputMismatch("resume pass returned another digest set than the cold pass")
    checks = [ok for outcome in cold.outcomes for ok in outcome.result.checks.values()]
    return JobResult(
        wall_s=wall + resume_wall,
        cpu_s=cpu + resume_cpu,
        fingerprint=fingerprint,
        cells=cells,
        checks=len(checks),
        checks_failed=sum(1 for ok in checks if not ok),
        paper_gaps=[paper_gap(outcome.result.table) for outcome in cold.outcomes],
        cell_walls=[outcome.wall_s for outcome in cold.outcomes],
        resume_s=resume_wall,
    )
