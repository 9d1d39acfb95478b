"""``serve`` workload: a campaign server under a closed loop of clients.

``repro serve start --jobs 2`` runs in its own process.  Two client
threads in this process each submit a small seeded campaign through
``ServeClient``, poll it to completion at a fixed interval, then take
the next one (a closed loop: a slower server gets less load).  Even
positions of the schedule are new points; odd positions submit work
the server already has, in turn an earlier spec again (the dedup path)
and points a batch run put in its result cache before it started (the
cache path).  The HTTP protocol, the SQLite store, lease dispatch and
the server's 50 ms tick dominate here; this is the only workload that
reaches ``serve``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from . import points as pts
from .common import ROOT, Tally, WorkloadResult, child_env, median, percentile
from .hostspeed import calibrate, normalise

SETUP_PROBES = 3
CLIENTS = 2
JOBS_PER_CAMPAIGN = 3
POLL_S = 0.02
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 20.0
#: Campaigns per run in smoke mode (tests).
SMOKE_CAMPAIGNS = 6
SERVER_COUNTERS = ["requests", "dispatched", "dedup", "cache_hits", "shed", "stale_discards"]
#: Per-layer metrics a traced run must record as nonzero.  The other
#: two server counters, ``serve.shed`` and ``serve.stale_discards``,
#: are read too but stay 0 in a healthy run: the loop never fills the
#: backlog and no lease expires.
LAYERS = [
    "serve.requests",
    "serve.dispatched",
    "serve.dedup",
    "serve.cache_hits",
    "serve.submit.s",
    "serve.poll.calls",
    "trace.spans",
    "trace.overhead_pct",
]


class Server:
    """One ``repro serve start`` process and a client for it."""

    def __init__(self, directory) -> None:
        from repro.serve import ServeClient, ServeError

        self.directory = directory
        self.client = None
        before = calibrate()
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "start", "-o", str(directory),
             "--jobs", "2"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} during start")
            if time.monotonic() - spawned > START_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not answer within the start timeout")
            try:
                doc = json.loads((directory / "server.json").read_text(encoding="utf-8"))
                client = ServeClient(doc["host"], int(doc["port"]))
                client.health()
                break
            except (OSError, ValueError, KeyError, ServeError):
                time.sleep(0.005)
        self.setup_s = time.monotonic() - spawned
        self.setup_ref_s = normalise(self.setup_s, before, calibrate())
        self.client = client

    def stop(self) -> None:
        """Drain (the server exits once its queue is empty); kill if stuck."""
        if self.proc.poll() is not None:
            return
        try:
            if self.client is None:
                raise RuntimeError("server never answered")
            self.client.drain()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - fall through to a hard stop
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)


def _closed_loop(client, schedule, deadline: float) -> List[Dict[str, Any]]:
    """Run clients until ``deadline``; returns one record per campaign."""
    lock = threading.Lock()
    cursor = [0]
    records: List[Dict[str, Any]] = []
    errors: List[str] = []

    def worker() -> None:
        while time.monotonic() < deadline:
            with lock:
                position = cursor[0]
                if position >= len(schedule):
                    return
                cursor[0] += 1
            item = schedule[position]
            t0 = time.monotonic()
            try:
                receipt = client.submit(item["spec"])
                polls = 1
                doc = client.campaign(receipt["campaign"])
                while not doc["done"]:
                    time.sleep(POLL_S)
                    polls += 1
                    doc = client.campaign(receipt["campaign"])
                latency = time.monotonic() - t0
            except Exception as exc:  # noqa: BLE001 - counted as a failed campaign
                with lock:
                    errors.append(f"campaign at position {position}: {type(exc).__name__}: {exc}")
                continue
            with lock:
                records.append(
                    {"position": position, "kind": item["kind"],
                     "latency": latency, "polls": polls, "doc": doc, "spec": item["spec"]}
                )

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records + [{"error": e} for e in errors]


def _verify(client, records, digests: Dict[str, str], tally: Tally) -> None:
    """Each campaign finished with served bytes equal to the batch bytes."""
    served: Dict[str, Optional[str]] = {}
    for rec in records:
        if "error" in rec:
            tally.check(False, rec["error"])
            continue
        ok = True
        wanted = {
            pts.point_key(p) for p in pts.spec_points(rec["spec"])
        }
        got = set()
        for job in rec["doc"]["jobs"]:
            key = pts.point_key((job["experiment"], job["params"]))
            got.add(key)
            if job["state"] != "done":
                ok = False
                continue
            if job["key"] not in served:
                try:
                    served[job["key"]] = hashlib.sha256(client.artifact(job["key"])).hexdigest()
                except Exception:  # noqa: BLE001 - a missing artifact is a mismatch
                    served[job["key"]] = None
            ok = ok and served[job["key"]] == digests.get(key)
        tally.check(ok and got == wanted, f"campaign {rec['doc']['id']}: served artifacts differ")


def _prefill(cache, schedule, work, tally: Tally) -> None:
    """Compute the points of the schedule's ``cached`` campaigns with the
    batch runner into the result cache ``cache``."""
    from repro.campaign import CampaignRunner, CampaignSpec

    jobs = [job for item in schedule if item["kind"] == "cached" for job in item["spec"]["jobs"]]
    spec = CampaignSpec.from_dict({"name": "bench-serve-prefill", "jobs": jobs})
    result = CampaignRunner(spec, work, jobs=2, cache_dir=cache).run()
    tally.check(
        len(result.executed) == len(jobs) and all(r.status == "done" for r in result.records),
        f"cache prefill: computed {len(result.executed)} of {len(jobs)} jobs",
    )


def _session(opts, name, schedule, seconds, tally, digests, tracer=None):
    """Start a fresh server over a copy of the prefilled result cache,
    run the closed loop for ``seconds``, check every campaign, stop the
    server.

    Returns the server's set-up time, the campaign records, the loop's
    duration and the server's counters.  With a ``tracer`` the client
    layer is wrapped during the loop.
    """
    from perfbench.tracing import install

    shutil.copytree(opts.work / "serve-cache", opts.work / name / ".cache")
    server = Server(opts.work / name)
    try:
        uninstall = install(tracer) if tracer is not None else None
        start = time.monotonic()
        try:
            records = _closed_loop(server.client, schedule, start + seconds)
        finally:
            if uninstall is not None:
                uninstall()
        loop_s = time.monotonic() - start
        counters = server.client.stats()["counters"]
        _verify(server.client, records, digests, tally)
    finally:
        server.stop()
    return server.setup_ref_s, records, loop_s, counters


def run(opts) -> WorkloadResult:
    from perfbench.tracing import Tracer

    tally = Tally()
    digests = pts.load_digests()
    schedule = pts.serve_schedule(opts.seed, JOBS_PER_CAMPAIGN)
    if opts.smoke:
        schedule = schedule[:SMOKE_CAMPAIGNS]
    _prefill(opts.work / "serve-cache", schedule, opts.work / "serve-prefill", tally)
    setups: List[float] = []
    for i in range(opts.setup_probes - 1):
        server = Server(opts.work / f"serve-probe-{i}")
        setups.append(server.setup_ref_s)
        server.stop()
    # A traced run measures half the budget untraced and half traced,
    # each on a fresh server from the start of the same schedule, so the
    # two halves do the same work from the same state.
    seconds = opts.seconds / 2 if opts.trace else opts.seconds
    setup, records, loop_s, _ = _session(opts, "serve", schedule, seconds, tally, digests)
    setups.append(setup)
    trace_rounds: List[Dict[str, Any]] = []
    layers_extra: Dict[str, float] = {}
    if opts.trace:
        tracer = Tracer()
        _, traced, traced_s, counters = _session(
            opts, "serve-traced", schedule, seconds, tally, digests, tracer
        )
        n = max(len(traced), 1)
        layers_extra = {f"serve.{name}": counters.get(name, 0) / n for name in SERVER_COUNTERS}
        layers_extra["serve.poll.calls"] = tracer.counters.get("serve.poll.calls", 0) / n
        trace_rounds = [
            {"traced": False, "wall_s": loop_s / max(len(records), 1)},
            {"traced": True, "wall_s": traced_s / n, "rounds": n,
             "summary": tracer.summary(), "events": tracer.chrome_events(0)},
        ]

    done = [r for r in records if "error" not in r]
    new = [r["latency"] for r in done if r["kind"] == "new"]
    again = [r["latency"] for r in done if r["kind"] == "resubmit"]
    cached = [r["latency"] for r in done if r["kind"] == "cached"]
    rate = len(done) / loop_s
    p50, p90 = median(new), percentile(new, 90)
    metrics = {
        "setup_s": median(setups),
        "wall_s": 100.0 / rate,
        "ops_per_s": rate,
        "heavy_s": p90,
        "light_s": p50,
    }
    named = {
        "serve.latency_p50_s": p50,
        "serve.latency_p90_s": p90,
        "serve.campaigns_per_s": rate,
        "serve.resubmit_p50_s": median(again),
        "serve.cached_p50_s": median(cached),
    }
    notes = {
        "campaigns": len(done),
        "new_campaigns": len(new),
        "beyond_p90": sum(1 for x in new if x > p90),
        "resubmits": len(again),
        "cached": len(cached),
        "setup_samples": len(setups),
        "clients": CLIENTS,
        "poll_s": POLL_S,
    }
    return opts.finish(tally, metrics, named, notes, trace_rounds, layers_extra)
