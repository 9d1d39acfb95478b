"""Seeded inputs for the ``sweep`` and ``serve`` workloads.

Every input is drawn from a fixed pool of cheap, valid experiment
points whose artifact digests are recorded in ``refs/points.json``.
``processes`` stops at 16384: at 32768 the XT4/QC has too few nodes
and ``fig3`` fails by design.  The seed picks which points run and in
what order; the cost mix is held level across seeds by drawing the
same number of ``fig3`` points per process count.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Tuple

from .common import REFS

FIG3_PROCESSES = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
FIG3_NBYTES = [8 * k for k in range(1, 101)]
FIG6_EDGES = list(range(8, 208))

Point = Tuple[str, Dict[str, int]]


def pool() -> List[Point]:
    points: List[Point] = [
        ("fig3", {"nbytes": nbytes, "processes": procs})
        for procs in FIG3_PROCESSES
        for nbytes in FIG3_NBYTES
    ]
    points += [("fig6", {"edge": edge}) for edge in FIG6_EDGES]
    return points


def point_key(point: Point) -> str:
    experiment, params = point
    return experiment + " " + " ".join(f"{k}={params[k]}" for k in sorted(params))


def load_digests() -> Dict[str, str]:
    """``point_key`` → sha256 of the artifact bytes (text plus newline)."""
    return json.loads((REFS / "points.json").read_text(encoding="utf-8"))


def entry(point: Point) -> Dict[str, Any]:
    experiment, params = point
    return {"experiment": experiment, "params": dict(params)}


def sweep_points(seed: int, per_processes: int, fig6: int) -> List[Point]:
    """``per_processes`` fig3 points per process count plus ``fig6``
    fig6 points, in seeded order."""
    rng = random.Random(f"sweep:{seed}")
    points: List[Point] = []
    for procs in FIG3_PROCESSES:
        for nbytes in rng.sample(FIG3_NBYTES, per_processes):
            points.append(("fig3", {"nbytes": nbytes, "processes": procs}))
    points += [("fig6", {"edge": e}) for e in rng.sample(FIG6_EDGES, fig6)]
    rng.shuffle(points)
    return points


def serve_schedule(seed: int, jobs_per_campaign: int) -> List[Dict[str, Any]]:
    """The closed loop's submission order.

    Even positions are ``new`` campaigns of unused points.  Odd
    positions submit work the server already has, in turn a
    ``resubmit`` of an earlier campaign's exact spec (its jobs dedup
    onto the done rows) and a ``cached`` campaign, whose points a batch
    run put in the server's result cache before it started (its jobs
    are served from the cache).
    """
    rng = random.Random(f"serve:{seed}")
    points = pool()
    rng.shuffle(points)
    specs = [
        {
            "name": f"bench-{seed}-{i}",
            "jobs": [entry(p) for p in points[i * jobs_per_campaign:(i + 1) * jobs_per_campaign]],
        }
        for i in range(len(points) // jobs_per_campaign)
    ]
    # A third of the specs are for the cache path: a 25-second run on a
    # 2-core host reaches about 180 new and 90 cached campaigns.
    cached, new = specs[: len(specs) // 3], specs[len(specs) // 3:]
    schedule: List[Dict[str, Any]] = []
    for i, spec in enumerate(new):
        schedule.append({"spec": spec, "kind": "new"})
        if i % 2 and i // 2 < len(cached):
            schedule.append({"spec": cached[i // 2], "kind": "cached"})
        else:
            schedule.append({"spec": new[rng.randrange(max(i, 1))], "kind": "resubmit"})
    return schedule


def spec_points(spec: Dict[str, Any]) -> List[Point]:
    return [(job["experiment"], job["params"]) for job in spec["jobs"]]
