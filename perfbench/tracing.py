"""Layer tracing for the traced benchmark run, from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
public functions and methods of each ``repro`` layer with thin wrappers
that record a span (name, start, end, parent) or, for functions hot
enough that a span would cost more than the call, only a count.  Spans
are kept in memory and exported at the end as Chrome-trace JSON.

A layer's *self time* is the duration of its spans minus the time their
direct child spans cover; calls on one thread nest, so the covered time
is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

class Tracer:
    """In-memory spans and counters, safe to record from several threads."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float, int]] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, parent, name, start, end, threading.get_ident())
                )

    def summary(self) -> Dict[str, Any]:
        """Per span name: call count, inclusive and self seconds; plus counters."""
        covered: Dict[int, float] = {}
        for _sid, parent, _name, start, end, _tid in self.spans:
            if parent:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        names: Dict[str, Dict[str, float]] = {}
        for sid, _parent, name, start, end, _tid in self.spans:
            entry = names.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += (end - start) - covered.get(sid, 0.0)
        return {"spans": names, "counters": dict(self.counters)}

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        return [
            {
                "name": name,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent},
            }
            for sid, parent, name, start, end, tid in self.spans
        ]


def merge_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- wrapping ---------------------------------------------------------------
def _patch(installed: list, owner: Any, attr: str, wrapper_for: Callable) -> None:
    original = owner.__dict__[attr]
    setattr(owner, attr, functools.wraps(original)(wrapper_for(original)))
    installed.append((owner, attr, original))


def _spanned(tracer: Tracer, name: str, on_call: Optional[Callable] = None):
    """Wrapper factory: a span per call; ``on_call(args, kwargs)`` may
    return a callback that reads the result (for counters)."""

    def make(original):
        def wrapper(*args, **kwargs):
            finish = on_call(args, kwargs) if on_call is not None else None
            result = tracer.span(name, original, args, kwargs)
            if finish is not None:
                finish(result)
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, name: str, on_result: Optional[Callable] = None):
    """Wrapper factory: count calls only (for very hot functions)."""
    calls = name + ".calls"

    def make(original):
        def wrapper(*args, **kwargs):
            tracer.add(calls)
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    return make


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer; returns a function that undoes it."""
    mod = importlib.import_module
    installed: list = []
    add = tracer.add

    def patch(module: str, attr: str, make, cls: Optional[str] = None) -> None:
        owner = getattr(mod(module), cls) if cls else mod(module)
        _patch(installed, owner, attr, make)

    # core / analytic models
    patch("repro.core.evaluation", "run_experiment", _spanned(tracer, "core.run_experiment"))
    patch("repro.halo.bench", "time_analytic", _spanned(tracer, "halo.time_analytic"), "HaloBenchmark")
    patch("repro.halo.bench", "run_des", _spanned(tracer, "halo.run_des"), "HaloBenchmark")
    patch("repro.apps.pop.model", "sweep", _spanned(tracer, "apps.pop.sweep"), "PopModel")
    for module in ("repro.apps.pop.model", "repro.apps.pop.grid"):
        patch(module, "imbalance", _counted(tracer, "apps.pop.imbalance"))
    patch("repro.apps.pop.des_replay", "replay_steps", _spanned(tracer, "apps.pop.replay_steps"))
    patch("repro.power.table3", "build_table3", _spanned(tracer, "power.build_table3"))

    # topology: counts only, these run millions of times
    patch("repro.topology.mapping", "node_of", _counted(tracer, "topology.node_of"), "Mapping")
    patch(
        "repro.topology.torus", "route",
        _counted(tracer, "topology.route", lambda r: add("topology.route.hops", len(r))),
        "Torus3D",
    )

    # message-level engines
    def cluster_result(_args, _kwargs):
        def finish(result):
            add("simmpi.messages", result.messages)
            add("simmpi.bytes_sent", result.bytes_sent)

        return finish

    patch("repro.simmpi.comm", "run", _spanned(tracer, "simmpi.cluster_run", cluster_result), "Cluster")

    def engine_events(args, _kwargs):
        engine, before = args[0], args[0].events_processed
        return lambda _result: add("simengine.events", engine.events_processed - before)

    patch("repro.simengine.engine", "run", _spanned(tracer, "simengine.run", engine_events), "Engine")

    def pdes_stats(_args, _kwargs):
        def finish(result):
            for field in ("rounds", "null_messages", "boundary_events", "engine_steps"):
                add(f"pdes.{field}", getattr(result.stats, field))

        return finish

    patch("repro.pdes.runner", "run", _spanned(tracer, "pdes.run", pdes_stats))
    for attr in (
        "find_link_conflicts",
        "canonical_trace_json",
        "canonical_metrics_json",
        "canonical_events_jsonl",
    ):
        patch("repro.pdes.runner", attr, _spanned(tracer, "pdes.certify"))

    # campaign
    patch("repro.campaign.spec", "expand", _spanned(tracer, "campaign.expand"), "CampaignSpec")
    patch("repro.campaign.cache", "get", _spanned(tracer, "campaign.cache_get"), "ResultCache")
    patch("repro.campaign.cache", "put", _spanned(tracer, "campaign.cache_put"), "ResultCache")
    patch("repro.campaign.runner", "write_manifest", _spanned(tracer, "campaign.write_manifest"))
    for module in ("repro.campaign", "repro.campaign.runner", "repro.campaign.cache"):
        patch(module, "code_fingerprint", _spanned(tracer, "campaign.code_fingerprint"))

    # serve client
    patch("repro.serve.client", "submit", _spanned(tracer, "serve.submit"), "ServeClient")
    patch("repro.serve.client", "campaign", _counted(tracer, "serve.poll"), "ServeClient")

    def uninstall() -> None:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(
    summary: Dict[str, Any], rounds: float, extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer figures, per round of the workload, for what was recorded.

    Each span name ``N`` gives ``N.calls`` and ``N.s`` (self seconds);
    each counter keeps its own name.  ``extra`` supplies the figures
    that come from outside the spans (campaign results, server counters,
    tracing overhead); they are taken as already normalised.  A layer
    no traced call reached has no entry, so it cannot pass for a zero.
    """
    spans, counters = summary["spans"], summary["counters"]
    per = 1.0 / rounds
    values: Dict[str, float] = {}
    for name, entry in spans.items():
        values[name + ".calls"] = entry["calls"] * per
        values[name + ".s"] = entry["self_s"] * per
    for name, value in counters.items():
        values[name] = value * per
    events = counters.get("simengine.events")
    if events and "simengine.run" in spans:
        values["simengine.host_us_per_event"] = spans["simengine.run"]["incl_s"] / events * 1e6
    if spans:
        values["trace.spans"] = sum(e["calls"] for e in spans.values()) * per
    values.update(extra)
    return values
