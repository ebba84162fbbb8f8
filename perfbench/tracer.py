"""Span tracer for the traced benchmark pass.

Spans are recorded from this file only, by wrapping the public entry
points of each ``repro`` layer for the duration of one traced job; the
program itself is not edited.  Every span is aggregated in memory under
its causal edge ``(parent span, span)`` as ``[count, total_s, self_s]``,
where a span's self time is its duration minus the time its child spans
cover.  :meth:`Tracer.summary` is what the benchmark writes out when it
ends.

Layer of a span: the ``repro`` sub-package that defines the code it
runs, as a profiler would group it.  A MACA station therefore spends its
exchange time in ``core`` (``repro.mac.maca.MacaMac`` runs the state
machine of ``repro.core.macaw.MacawMac``) and its frame plumbing in
``mac`` (``repro.mac.base.BaseMac``).  Callbacks handed to
``Simulator.at``/``schedule`` are wrapped as handler spans named after
their owner's class and attributed to their function's module (a
``Timer`` is looked through to the callback it arms).
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

Key = Tuple[str, str]
ROOT: Key = ("bench", "root")
_MISSING = object()


def module_layer(module: str) -> str:
    """``repro.<layer>.x`` -> ``<layer>``; anything else is ``bench``."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        # Table rendering (repro.analysis) is experiment-driver work.
        return "experiments" if parts[1] == "analysis" else parts[1]
    return "bench"


class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        own = vars(owner).get(name, _MISSING)
        current = getattr(owner, name)
        setattr(owner, name, functools.wraps(current)(make(current)))
        self._undo.append((owner, name, own))

    def restore(self) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, own)


class Tracer:
    """In-memory span aggregate plus the counts taken at span boundaries."""

    def __init__(self) -> None:
        #: (parent key, key) -> [count, total seconds, self seconds]
        self.edges: Dict[Tuple[Key, Key], List[float]] = {}
        #: Counts recorded at the wrapped boundaries (``sim.scheduled``...).
        self.counts: Dict[str, int] = {}
        self._stack: List[List[Any]] = [[ROOT, 0.0]]
        self._handler_keys: Dict[Tuple[type, Any], Key] = {}

    # ------------------------------------------------------------ spans
    def call(self, key: Key, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one span named ``key``."""
        stack = self._stack
        frame = [key, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            parent = stack[-1]
            parent[1] += elapsed
            edge = (parent[0], key)
            record = self.edges.get(edge)
            if record is None:
                record = self.edges[edge] = [0, 0.0, 0.0]
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - frame[1]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def handler(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a kernel callback as a span attributed to its owner."""
        key = self._handler_key(callback)
        call = self.call

        def fired(*args: Any) -> Any:
            return call(key, callback, *args)

        return fired

    def _handler_key(self, callback: Callable[..., Any]) -> Key:
        from repro.sim.timers import Timer

        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Timer):
            callback = owner._callback
            owner = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", callback)
        cache_key = (type(owner), func)
        key = self._handler_keys.get(cache_key)
        if key is None:
            name = getattr(func, "__qualname__", type(func).__name__)
            if owner is not None:
                name = f"{type(owner).__name__}.{getattr(func, '__name__', '?')}"
            module = getattr(func, "__module__", "") or ""
            key = self._handler_keys[cache_key] = (module_layer(module), name)
        return key

    # ---------------------------------------------------------- reading
    def self_s(self, layer: str) -> float:
        """Self time of every span of ``layer``."""
        return sum(rec[2] for (_, key), rec in self.edges.items() if key[0] == layer)

    def total_s(self, key: Key) -> float:
        """Inclusive time of the spans named ``key``."""
        return sum(rec[1] for (_, k), rec in self.edges.items() if k == key)

    def summary(self) -> Dict[str, Any]:
        layers: Dict[str, float] = {}
        for (_, key), rec in self.edges.items():
            layers[key[0]] = layers.get(key[0], 0.0) + rec[2]
        return {
            "self_s_by_layer": dict(sorted(layers.items())),
            "counts": dict(sorted(self.counts.items())),
            "edges": [
                {"parent": "/".join(parent), "span": "/".join(key),
                 "count": int(rec[0]), "total_s": rec[1], "self_s": rec[2]}
                for (parent, key), rec in sorted(
                    self.edges.items(), key=lambda item: -item[1][2])
            ],
        }


# ------------------------------------------------------------------ wrapping
def _span(tracer: Tracer, key: Key) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        call = tracer.call

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(key, fn, *args, **kwargs)

        return wrapper

    return make


def _on_frame_span(tracer: Tracer, key: Key) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """``on_frame`` span that also counts clean unicast frames overheard."""

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        call, count, overheard = tracer.call, tracer.count, f"{key[0]}.overheard"

        def wrapper(self: Any, frame: Any, clean: bool) -> Any:
            if clean and frame.dst != self.name and not frame.is_multicast:
                count(overheard)
            return call(key, fn, self, frame, clean)

        return wrapper

    return make


def _trace_record_span(tracer: Tracer) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """``Trace.record`` span, skipped for disabled traces (a no-op call)."""

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        call, key = tracer.call, ("sim", "trace_record")

        def wrapper(self: Any, *args: Any, **detail: Any) -> Any:
            if not self.enabled:
                return fn(self, *args, **detail)
            return call(key, fn, self, *args, **detail)

        return wrapper

    return make


def install_cell_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap every in-process layer entry point a cell runs through."""
    from repro.core.macaw import MacawMac
    from repro.experiments.base import Experiment
    from repro.mac.base import BaseMac
    from repro.mac.csma import CsmaMac
    from repro.mac.polling import PollingBaseMac, PollingPadMac
    from repro.net.sink import Dispatcher
    from repro.obs.probes import MacProbe, ScenarioMetrics
    from repro.obs.sampler import Sampler
    from repro.phy.medium import Medium
    from repro.service import scheduler
    from repro.sim.kernel import Simulator
    from repro.sim.trace import Trace
    from repro.topo.builder import Scenario, ScenarioBuilder

    handler, count, call = tracer.handler, tracer.count, tracer.call
    at_key, schedule_key = ("sim", "at"), ("sim", "schedule")

    def wrap_at(fn: Callable[..., Any]) -> Callable[..., Any]:
        def at(self: Any, time: float, callback: Callable[..., Any], *args: Any,
               priority: int = 0, pooled: bool = False) -> Any:
            count("sim.scheduled")
            return call(at_key, fn, self, time, handler(callback), *args,
                        priority=priority, pooled=pooled)

        return at

    def wrap_schedule(fn: Callable[..., Any]) -> Callable[..., Any]:
        def schedule(self: Any, delay: float, callback: Callable[..., Any], *args: Any,
                     pooled: bool = False) -> Any:
            count("sim.scheduled")
            return call(schedule_key, fn, self, delay, handler(callback), *args,
                        pooled=pooled)

        return schedule

    patches.wrap(Simulator, "at", wrap_at)
    patches.wrap(Simulator, "schedule", wrap_schedule)
    patches.wrap(Simulator, "run", _span(tracer, ("sim", "run")))
    patches.wrap(Trace, "record", _trace_record_span(tracer))
    patches.wrap(Trace, "digest", _span(tracer, ("sim", "digest")))
    patches.wrap(Medium, "transmit", _span(tracer, ("phy", "transmit")))
    for name in ("send_frame", "deliver_up", "notify_drop", "notify_sent"):
        patches.wrap(BaseMac, name, _span(tracer, ("mac", name)))
    for cls in (MacawMac, CsmaMac, PollingBaseMac, PollingPadMac):
        layer = module_layer(cls.__module__)
        for name in ("on_carrier", "on_transmit_complete", "enqueue"):
            if name in vars(cls):
                patches.wrap(cls, name, _span(tracer, (layer, name)))
        if "on_frame" in vars(cls):
            maker = _on_frame_span if cls is MacawMac else _span
            patches.wrap(cls, "on_frame", maker(tracer, (layer, "on_frame")))
    patches.wrap(Dispatcher, "_on_deliver", _span(tracer, ("net", "deliver")))
    patches.wrap(Sampler, "_on_advance", _span(tracer, ("obs", "sample")))
    patches.wrap(MacProbe, "note_state", _span(tracer, ("obs", "note_state")))
    patches.wrap(ScenarioMetrics, "dump", _span(tracer, ("obs", "dump")))
    patches.wrap(Scenario, "verify", _span(tracer, ("verify", "sanitize")))
    patches.wrap(ScenarioBuilder, "build", _span(tracer, ("topo", "build")))
    patches.wrap(Experiment, "run", _span(tracer, ("experiments", "run")))
    patches.wrap(scheduler, "execute_cell", _span(tracer, ("runner", "execute_cell")))


def install_service_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap the parent-side sweep entry points: result cache and journal."""
    from repro.runner.cache import ResultCache
    from repro.service.journal import Journal

    patches.wrap(ResultCache, "get", _span(tracer, ("runner", "cache_get")))
    patches.wrap(ResultCache, "put", _span(tracer, ("runner", "cache_put")))
    patches.wrap(Journal, "append", _span(tracer, ("service", "journal_append")))
    patches.wrap(Journal, "load", _span(tracer, ("service", "journal_load")))

