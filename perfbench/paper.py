"""``paper`` workload: the user's cold ``repro run all``.

Every pass is a fresh interpreter calling
``repro.core.evaluation.run_experiment`` for all 13 ids in paper order.
A fresh process is required, not a convenience: ``apps/pop/grid.py``
and ``campaign/cache.py`` hold ``lru_cache``s, and a second in-process
pass reuses them (``table3`` drops from seconds to milliseconds), which
users running ``repro run all`` never get.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from .common import GOLDEN, Clock, Tally, WorkloadResult, median, run_step
from .hostspeed import speed

#: A run makes one or two passes, each one more set-up sample.
SETUP_PROBES = 4
#: Ids for the benchmark's own smoke tests: one cheap text, and the
#: only three experiments that reach the layers below.
SMOKE_IDS = ["table1", "fig2", "fig4", "table3"]
#: Per-layer metrics a traced pass must record as nonzero.
LAYERS = [
    "core.run_experiment.calls",
    "core.run_experiment.s",
    "halo.time_analytic.calls",
    "halo.time_analytic.s",
    "topology.node_of.calls",
    "topology.route.calls",
    "topology.route.hops",
    "apps.pop.sweep.s",
    "apps.pop.imbalance.calls",
    "power.build_table3.s",
    "trace.spans",
    "trace.overhead_pct",
]


def golden_digests(ids: List[str]) -> Dict[str, str]:
    out = {}
    for eid in ids:
        path = GOLDEN / f"{eid}.txt"
        out[eid] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return out


def run(opts) -> WorkloadResult:
    ids = SMOKE_IDS if opts.smoke else None
    tally = Tally()
    setups: List[float] = []
    for _ in range(opts.setup_probes):
        setups.append(run_step({"step": "setup", "workload": "paper"}, opts.work)["setup_ref_s"])
    expected: Dict[str, str] = {}
    pids = []

    def one_pass(trace: bool):
        answer = run_step({"step": "paper", "ids": ids, "trace": trace}, opts.work)
        setups.append(answer["setup_ref_s"])
        pids.append(answer["pid"])
        tally.check(
            answer["warm_cache_entries"] == 0,
            "paper pass did not start from empty lru_caches",
        )
        if not expected:
            expected.update(
                golden_digests([e["id"] for e in answer["experiments"]])
            )
        for exp in answer["experiments"]:
            if "error" in exp:
                tally.check(False, f"{exp['id']}: {exp['error']}")
            else:
                tally.check(
                    exp["sha256"] == expected[exp["id"]],
                    f"{exp['id']}: text differs from {GOLDEN / (exp['id'] + '.txt')}",
                )
        return answer

    passes = opts.round_loop(Clock(opts.seconds), one_pass)
    measured = [p for p in passes if not p["traced"]] or passes

    # A pass is dominated by one 8-12 s call, and the calibrations at its
    # ends do not track drift inside it (normalising fig2 by them widened
    # its spread across runs from 0.20 to 0.26).  But the host also runs
    # in phases minutes long: between sets of ten runs the median raw
    # pass moved from 10.8 s to 15.9 s, with the host speed from 1.61 to
    # 1.13.  So passes are scaled by the run's mean host speed, over the
    # calibrations taken between all its experiments: that moved set
    # medians by at most 18% where raw seconds moved by 54%.
    run_speed = speed([c for p in measured for c in p["calibrations"]])

    def seconds(answer, wanted) -> float:
        return run_speed * sum(e["seconds"] for e in answer["experiments"] if e["id"] in wanted)

    wall = run_speed * median([p["wall_s"] for p in measured])
    fig2 = median([seconds(p, {"fig2"}) for p in measured])
    pop = median([seconds(p, {"fig4", "table3"}) for p in measured])
    n_exp = len(measured[0]["experiments"])
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "ops_per_s": n_exp / wall,
        "heavy_s": fig2,
        "light_s": pop,
    }
    named = {"paper.fig2_s": fig2, "paper.pop_s": pop}
    notes = {
        "passes": len(measured),
        "raw_wall_s": median([p["wall_s"] for p in measured]),
        "host_speed": run_speed,
        "setup_samples": len(setups),
        "fresh_interpreters": len(set(pids)),
        "child_pids": pids,
    }
    return opts.finish(tally, metrics, named, notes, passes)
