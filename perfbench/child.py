"""One fresh-interpreter step of the benchmark.

Usage: ``python -m perfbench.child '<request json>' <answer path>``,
with ``src/`` on ``PYTHONPATH``.  Steps:

* ``paper`` — one cold ``repro run all``: every experiment in paper
  order; answers each text's sha256 and host time.
* ``des`` — one round of message-level runs; answers each run's
  simulated results and host time.
* ``setup`` — only the set-up a workload's process does before its
  first timed call, so ``setup_s`` can be sampled several times.

``ready_at`` (``time.monotonic``, which is system-wide on Linux) marks
the first timed call; the parent subtracts its spawn time.  With
``"trace": true`` the layers are wrapped (``perfbench.tracing``) after
set-up, and the span summary and Chrome events come back too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


#: The lru_caches a second in-process pass would reuse.
WARM_CACHES = [
    ("repro.apps.pop.grid", "_block_ocean_counts"),
    ("repro.campaign.cache", "code_fingerprint"),
]


def warm_cache_entries() -> int:
    """Entries in :data:`WARM_CACHES`, looked up without importing
    anything (a module not yet imported holds none)."""
    return sum(
        getattr(sys.modules[module], name).cache_info().currsize
        for module, name in WARM_CACHES
        if module in sys.modules
    )


def _paper(request, answer, tracer):
    import repro.core.evaluation as evaluation

    # Evidence that this pass starts cold.
    answer["warm_cache_entries"] = warm_cache_entries()
    ids = request.get("ids") or evaluation.experiment_ids()
    if tracer is not None:
        answer["uninstall"] = _install(tracer)
    answer["ready_at"] = time.monotonic()

    def one(eid):
        text = evaluation.run_experiment(eid)
        return {"id": eid, "sha256": hashlib.sha256(text.encode()).hexdigest()}

    answer["experiments"] = _timed(
        [(eid, lambda eid=eid: one(eid)) for eid in ids], answer
    )


def _des(request, answer, tracer):
    from perfbench.des import prepare

    thunks = prepare(request["ops"])
    if tracer is not None:
        answer["uninstall"] = _install(tracer)
    answer["ready_at"] = time.monotonic()
    answer["ops"] = _timed([(op["name"], t) for op, t in zip(request["ops"], thunks)], answer)


def _timed(calls, answer):
    """Run and time each call; an exception becomes an ``error`` entry,
    counted as a failed operation by the parent.

    A host-speed calibration (``perfbench.hostspeed``) runs first and
    after every call, giving each result ``ref_seconds`` besides its
    measured ``seconds``.
    """
    from perfbench.hostspeed import calibrate, normalise

    cals = [calibrate()]
    out = []
    for name, call in calls:
        t0 = time.monotonic()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            result = {"id": name, "error": f"{name}: {type(exc).__name__}: {exc}"}
        result["seconds"] = time.monotonic() - t0
        cals.append(calibrate())
        result["ref_seconds"] = normalise(result["seconds"], cals[-2], cals[-1])
        out.append(result)
    answer["wall_s"] = sum(r["seconds"] for r in out)
    answer["ref_wall_s"] = sum(r["ref_seconds"] for r in out)
    answer["calibrations"] = cals
    return out


def _setup(request, answer, _tracer):
    workload = request["workload"]
    if workload == "paper":
        import repro.core.evaluation  # noqa: F401
    elif workload == "des":
        from perfbench.des import prepare

        prepare(request["ops"])
    elif workload == "sweep":
        from perfbench.sweep import prepare

        prepare(request["seed"], request["smoke"])
    else:
        raise ValueError(f"no setup step for workload {workload!r}")
    answer["ready_at"] = time.monotonic()
    from perfbench.hostspeed import calibrate

    answer["calibrations"] = [calibrate()]


def _install(tracer):
    from perfbench.tracing import install

    return install(tracer)


STEPS = {"paper": _paper, "des": _des, "setup": _setup}


def main(argv) -> int:
    request, answer_path = json.loads(argv[1]), argv[2]
    tracer = None
    if request.get("trace"):
        from perfbench.tracing import Tracer

        tracer = Tracer()
    answer = {"pid": os.getpid()}
    if tracer is not None and request["step"] == "setup":
        # Set-up is what is being traced here, so wrap before it.
        answer["uninstall"] = _install(tracer)
    STEPS[request["step"]](request, answer, tracer)
    uninstall = answer.pop("uninstall", None)
    if uninstall is not None:
        uninstall()
    if tracer is not None:
        answer["summary"] = tracer.summary()
        answer["events"] = tracer.chrome_events(os.getpid())
    with open(answer_path, "w", encoding="utf-8") as fh:
        json.dump(answer, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
