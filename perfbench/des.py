"""``des`` workload: message-level runs checked against recorded results.

Each round runs in a fresh interpreter.  The single-engine runs
(``halo`` DES, POP replay, a software collective sweep and the
single-engine ``pdes`` reference) exercise ``simengine``, ``simmpi``
and ``topology`` routing; the certified two-shard ``pdes`` run then
has to agree with the single-engine one on ``messages`` and
``elapsed``.  The analytic models and ``campaign`` do no work here.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List

from .common import REFS, Clock, Tally, WorkloadResult, median, run_step
from .hostspeed import speed

SETUP_PROBES = 3
#: A round takes 11-15 s on a 2-core host; two give the run a median.
MIN_ROUNDS = 2
#: Per-layer metrics a traced round must record as nonzero.
LAYERS = [
    "halo.run_des.s",
    "topology.node_of.calls",
    "topology.route.calls",
    "topology.route.hops",
    "apps.pop.replay_steps.s",
    "simmpi.cluster_run.calls",
    "simmpi.cluster_run.s",
    "simmpi.messages",
    "simmpi.bytes_sent",
    "simengine.events",
    "simengine.host_us_per_event",
    "pdes.run.s",
    "pdes.certify.s",
    "pdes.rounds",
    "pdes.null_messages",
    "pdes.boundary_events",
    "pdes.engine_steps",
    "trace.spans",
    "trace.overhead_pct",
]
#: (name, kind, arguments) of every run in a round, full size.
FULL_OPS: List[Dict[str, Any]] = [
    {"name": "halo-2048-smp-xyzt-4w", "kind": "halo",
     "grid": [64, 32], "mode": "SMP", "mapping": "XYZT", "words": 4},
    {"name": "halo-2048-smp-xyzt-32768w", "kind": "halo",
     "grid": [64, 32], "mode": "SMP", "mapping": "XYZT", "words": 32768},
    {"name": "halo-4096-vn-txyz-4w", "kind": "halo",
     "grid": [64, 64], "mode": "VN", "mapping": "TXYZ", "words": 4},
    {"name": "pop-replay-256", "kind": "pop",
     "processes": 256, "grid": [360, 240, 40], "solver_iterations": 20},
    {"name": "allreduce-bcast-xt4qc-256", "kind": "collectives",
     "ranks": 256, "sizes": [8, 1024, 32768, 262144]},
    {"name": "pdes-halo-single", "kind": "pdes",
     "scenario": "halo", "shards": 1},
    {"name": "pdes-halo-2-process", "kind": "pdes",
     "scenario": "halo", "shards": 2, "backend": "process", "certified": True},
]

#: The same shape at a size the benchmark's own tests can afford.
SMOKE_OPS: List[Dict[str, Any]] = [
    {"name": "halo-64-smp-xyzt-4w", "kind": "halo",
     "grid": [8, 8], "mode": "SMP", "mapping": "XYZT", "words": 4},
    {"name": "pop-replay-16", "kind": "pop",
     "processes": 16, "grid": [36, 24, 4], "solver_iterations": 2},
    {"name": "allreduce-bcast-xt4qc-16", "kind": "collectives",
     "ranks": 16, "sizes": [8, 1024]},
    {"name": "pdes-ring-single", "kind": "pdes",
     "scenario": "torus-ring", "shards": 1},
    {"name": "pdes-ring-2-process", "kind": "pdes",
     "scenario": "torus-ring", "shards": 2, "backend": "process", "certified": True},
]


def collective_sweep(comm, sizes):
    """Software allreduce then bcast at each size (XT4 has no tree)."""
    for nbytes in sizes:
        yield from comm.allreduce(nbytes)
        yield from comm.bcast(nbytes)
    return comm.now


# -- child side ---------------------------------------------------------------
def prepare(ops: List[Dict[str, Any]]) -> List[Callable[[], Dict[str, Any]]]:
    """Import the layers and build each run; returns one thunk per op.

    Each thunk returns the run's simulated results: ``value`` (float,
    compared by ``repr``), ``messages`` and, where the API gives it,
    ``bytes``.
    """
    import repro.apps.pop.des_replay as des_replay
    import repro.pdes as pdes
    from repro.apps.pop.grid import PopGrid
    from repro.halo.bench import HaloBenchmark
    from repro.machines import BGP, XT4_QC
    from repro.simmpi import Cluster

    # HaloBenchmark.run_des returns only the time; the message count
    # comes from the ClusterResult of the run it makes.
    results: List[Any] = []
    original_run = Cluster.run

    def keep_result(self, *args, **kwargs):
        result = original_run(self, *args, **kwargs)
        results.append(result)
        return result

    Cluster.run = keep_result

    thunks: List[Callable[[], Dict[str, Any]]] = []
    for op in ops:
        kind = op["kind"]
        if kind == "halo":
            bench = HaloBenchmark(BGP, tuple(op["grid"]), mode=op["mode"], mapping=op["mapping"])

            def thunk(bench=bench, words=op["words"]):
                value = bench.run_des(words)
                return {"value": value, "messages": results[-1].messages}

        elif kind == "pop":
            grid = PopGrid(*op["grid"])

            def thunk(grid=grid, op=op):
                res = des_replay.replay_steps(
                    BGP, op["processes"], grid, solver_iterations=op["solver_iterations"]
                )
                return {"value": res.seconds_per_step, "messages": res.messages}

        elif kind == "collectives":

            def thunk(op=op):
                res = Cluster(XT4_QC, ranks=op["ranks"], mode="SMP").run(
                    collective_sweep, op["sizes"]
                )
                return {"value": res.elapsed, "messages": res.messages, "bytes": res.bytes_sent}

        elif kind == "pdes":

            def thunk(op=op):
                if op.get("certified"):
                    res = pdes.run(op["scenario"], shards=op["shards"], backend=op["backend"])
                else:
                    res = pdes.run(op["scenario"], shards=op["shards"], observe=False)
                return {
                    "value": res.elapsed,
                    "messages": res.messages,
                    "bytes": res.bytes_sent,
                    "conflicts": len(res.conflicts),
                }

        else:
            raise ValueError(f"unknown des op kind {kind!r}")
        thunks.append(thunk)
    return thunks


# -- parent side --------------------------------------------------------------
def _check_round(answer: Dict[str, Any], ops, refs: Dict[str, Any], tally: Tally) -> None:
    by_name = {}
    for op, out in zip(ops, answer["ops"]):
        name = op["name"]
        if "error" in out:
            tally.check(False, f"{name}: {out['error']}")
            continue
        by_name[name] = out
        want = refs.get(name)
        got = {
            "value": repr(out["value"]),
            **{k: out[k] for k in ("messages", "bytes", "conflicts") if k in out},
        }
        tally.check(want == got, f"{name}: got {got}, recorded {want}")
    # The certified sharded run must agree with the single-engine run.
    single = next((o["name"] for o in ops if o["kind"] == "pdes" and o["shards"] == 1), None)
    sharded = next((o["name"] for o in ops if o.get("certified")), None)
    a, b = by_name.get(single), by_name.get(sharded)
    tally.check(
        a is not None and b is not None
        and a["messages"] == b["messages"] and a["value"] == b["value"],
        "sharded and single-engine pdes runs disagree on messages/elapsed",
    )


def run(opts) -> WorkloadResult:
    ops = SMOKE_OPS if opts.smoke else FULL_OPS
    refs = json.loads((REFS / "des.json").read_text(encoding="utf-8"))
    tally = Tally()
    setups: List[float] = []
    for _ in range(opts.setup_probes):
        setups.append(
            run_step({"step": "setup", "workload": "des", "ops": ops}, opts.work)["setup_ref_s"]
        )

    def one_round(trace: bool) -> Dict[str, Any]:
        answer = run_step({"step": "des", "ops": ops, "trace": trace}, opts.work)
        setups.append(answer["setup_ref_s"])
        _check_round(answer, ops, refs, tally)
        return answer

    clock = Clock(opts.seconds)
    rounds = opts.round_loop(clock, one_round, min_rounds=MIN_ROUNDS)
    untraced = [r for r in rounds if not r["traced"]]
    measured = untraced or rounds
    single = [
        (out["ref_seconds"], out.get("messages", 0))
        for r in measured
        for op, out in zip(ops, r["ops"])
        if not op.get("certified")
    ]
    per_round_single = [
        sum(out["ref_seconds"] for op, out in zip(ops, r["ops"]) if not op.get("certified"))
        for r in measured
    ]
    # The certified run computes in one worker process per shard, on
    # every core, which calibrations in the parent process do not
    # describe; it is scaled by the run's mean host speed instead.
    run_speed = speed([c for r in measured for c in r["calibrations"]])
    pdes_s = [
        out["seconds"] * run_speed
        for r in measured
        for op, out in zip(ops, r["ops"])
        if op.get("certified")
    ]
    walls = [r["ref_wall_s"] for r in measured]
    msgs_per_s = sum(m for _, m in single) / sum(s for s, _ in single)
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "ops_per_s": msgs_per_s,
        "heavy_s": median(per_round_single),
        "light_s": median(pdes_s),
    }
    named = {"des.msgs_per_s": msgs_per_s, "des.pdes_s": metrics["light_s"]}
    notes = {
        "rounds": len(measured),
        "raw_wall_s": median([r["wall_s"] for r in measured]),
        "host_speed": run_speed,
        "setup_samples": len(setups),
        "ops_per_round": len(ops),
    }
    return opts.finish(tally, metrics, named, notes, rounds)
