"""``sweep`` workload: a seeded campaign through ``CampaignRunner(jobs=2)``.

The points (``fig3`` over ``nbytes`` x ``processes``, ``fig6`` over
``edge``) cost a few milliseconds each, so the ``campaign`` layer
dominates: expansion, cache get and put, journal fsync, manifest and
the worker pool.  Each round is a cold pass into a fresh directory,
which writes every artifact and cache entry, then warm passes over the
same directory, which must be all cache hits and write nothing: the
writes-beside-reads split.
"""

from __future__ import annotations

import shutil
import time
from typing import Any, Dict, List

from . import points as pts
from .common import Clock, Tally, WorkloadResult, median, run_step
from .hostspeed import FsyncClock, calibrate, fsync_probe, reference_fsync, speed

SETUP_PROBES = 4
#: fig3 points per process count and fig6 points: 9 * 30 + 30 = 300 jobs.
FULL_SIZE = (30, 30)
SMOKE_SIZE = (2, 2)
#: Warm passes per cold pass: a warm pass takes about 0.2 s, so it
#: needs many samples to give a steady median, but so does the cold pass.
WARM_PASSES = 4
WORKERS = 2
#: Per-layer metrics a traced round must record as nonzero.
LAYERS = [
    "campaign.expand.s",
    "campaign.cache_get.calls",
    "campaign.cache_get.s",
    "campaign.cache_put.calls",
    "campaign.cache_put.s",
    "campaign.write_manifest.calls",
    "campaign.write_manifest.s",
    "campaign.executed",
    "campaign.artifacts_written",
    "campaign.cache_hit_ratio",
    "campaign.code_fingerprint.s",
    "trace.spans",
    "trace.overhead_pct",
]


def prepare(seed: int, smoke: bool):
    """The set-up a campaign process does before its first pass."""
    from repro.campaign import CampaignSpec, code_fingerprint

    per_processes, fig6 = SMOKE_SIZE if smoke else FULL_SIZE
    chosen = pts.sweep_points(seed, per_processes, fig6)
    spec = CampaignSpec.from_dict(
        {"name": f"bench-sweep-{seed}", "jobs": [pts.entry(p) for p in chosen]}
    )
    code_fingerprint()
    return spec


def _check_pass(result, expected: Dict[str, str], tally: Tally, warm: bool) -> None:
    for record in result.records:
        tally.check(
            record.status == "done" and record.digest == expected.get(record.job_id),
            f"{record.job_id}: status {record.status}, digest {record.digest}",
        )
    n = len(expected)
    if warm:
        ok = (result.cache_hits, len(result.executed), result.artifacts_written) == (n, 0, 0)
        what = "warm pass"
    else:
        ok = (result.cache_misses, len(result.executed), result.artifacts_written) == (n, n, n)
        what = "cold pass"
    tally.check(
        ok,
        f"{what}: hits {result.cache_hits}, misses {result.cache_misses}, "
        f"computed {len(result.executed)}, written {result.artifacts_written}",
    )


def run(opts) -> WorkloadResult:
    from repro.campaign import CampaignRunner

    tally = Tally()
    probe = {"step": "setup", "workload": "sweep", "seed": opts.seed, "smoke": opts.smoke}
    setup_answers = [
        run_step({**probe, "trace": opts.trace}, opts.work) for _ in range(opts.setup_probes)
    ]
    spec = prepare(opts.seed, opts.smoke)
    digests = pts.load_digests()
    expected = {
        job.job_id: digests.get(pts.point_key((job.experiment, job.params)), "")
        for job in spec.expand()
    }
    n_jobs = len(expected)
    counter = iter(range(10**6))

    def one_round(_trace: bool) -> Dict[str, Any]:
        directory = opts.work / f"sweep-{next(counter)}"
        probe = opts.work / "fsync-probe"
        cals, probes = [calibrate()], [fsync_probe(probe)]
        times: List[float] = []
        fsyncs: List[FsyncClock] = []
        totals = {"executed": 0, "written": 0, "hits": 0, "lookups": 0}
        try:
            for warm in [False] + [True] * WARM_PASSES:
                with FsyncClock() as clock:
                    t0 = time.monotonic()
                    result = CampaignRunner(spec, directory, jobs=WORKERS).run()
                    times.append(time.monotonic() - t0)
                fsyncs.append(clock)
                cals.append(calibrate())
                probes.append(fsync_probe(probe))
                _check_pass(result, expected, tally, warm=warm)
                totals["executed"] += len(result.executed)
                totals["written"] += result.artifacts_written
                totals["hits"] += result.cache_hits
                totals["lookups"] += result.cache_hits + result.cache_misses
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return {
            "wall_s": times[0] + median(times[1:]),
            "times": times,
            "fsyncs": fsyncs,
            "calibrations": cals,
            "probes": probes,
            "campaign": totals,
        }

    rounds = opts.round_loop(Clock(opts.seconds), one_round, in_process=True)
    # Each fsync is charged the run's reference fsync latency.
    # A warm pass runs in this process alone and is scaled by the host
    # speed on either side of it.  A cold pass computes in the pool's
    # workers, on every core, which those calibrations do not describe
    # (scaled so, its spread across runs grew from 0.09 to 0.15), so it
    # is scaled by the run's mean host speed.
    per_fsync = reference_fsync(
        [c for r in rounds for c in r["fsyncs"]], [p for r in rounds for p in r["probes"]]
    )
    run_speed = speed([c for r in rounds for c in r["calibrations"]])
    for r in rounds:
        cals = r["calibrations"]
        ref_times = [
            clock.reference(t, speed(cals[i:i + 2]) if i else run_speed, per_fsync)
            for i, (t, clock) in enumerate(zip(r["times"], r["fsyncs"]))
        ]
        r["cold_s"], r["warm_s"] = ref_times[0], ref_times[1:]
        r["ref_wall_s"] = ref_times[0] + median(ref_times[1:])
    measured = [r for r in rounds if not r["traced"]] or rounds
    cold_s = median([r["cold_s"] for r in measured])
    warm_s = median([w for r in measured for w in r["warm_s"]])
    metrics = {
        "setup_s": median([a["setup_ref_s"] for a in setup_answers]),
        "wall_s": median([r["ref_wall_s"] for r in measured]),
        "ops_per_s": n_jobs / cold_s,
        "heavy_s": cold_s,
        "light_s": warm_s,
    }
    named = {"sweep.cold_jobs_per_s": n_jobs / cold_s, "sweep.warm_jobs_per_s": n_jobs / warm_s}
    notes = {
        "jobs_per_pass": n_jobs,
        "rounds": len(measured),
        "raw_wall_s": median([r["wall_s"] for r in measured]),
        "host_speed": speed([c for r in measured for c in r["calibrations"]]),
        "warm_passes": sum(len(r["warm_s"]) for r in measured),
        "fsync_ref_ms": per_fsync * 1e3,
        "fsync_ms_median": median([x for r in measured for c in r["fsyncs"] for x in c.latencies]) * 1e3,
        "fsync_probe_ms": median([p for r in measured for p in r["probes"]]) * 1e3,
        "fsync_s_cold_pass": median([r["fsyncs"][0].seconds for r in measured]),
        "fsync_s_warm_pass": median([c.seconds for r in measured for c in r["fsyncs"][1:]]),
        "setup_samples": len(setup_answers),
    }
    extra: Dict[str, float] = {}
    traced = [r for r in rounds if r["traced"]]
    if traced:
        n = len(traced)
        totals = {k: sum(r["campaign"][k] for r in traced) for k in traced[0]["campaign"]}
        fingerprint = [
            a["summary"]["spans"].get("campaign.code_fingerprint", {}).get("self_s", 0.0)
            for a in setup_answers
        ]
        extra = {
            "campaign.executed": totals["executed"] / n,
            "campaign.artifacts_written": totals["written"] / n,
            "campaign.cache_hit_ratio": totals["hits"] / totals["lookups"],
            # The fingerprint is computed once per process, in set-up.
            "campaign.code_fingerprint.s": median(fingerprint),
        }
    return opts.finish(tally, metrics, named, notes, rounds, extra)
