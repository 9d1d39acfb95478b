"""Execution backends: inline (one process) and multiprocessing.

The coordinator only needs one operation — *advance this batch of
shards to their grants and give me the results* — so both backends
implement the same three-method surface:

* :class:`InlineBackend` holds the :class:`~repro.pdes.shard.ShardRuntime`
  objects directly and advances them sequentially.  Deterministic,
  zero-overhead, works for arbitrary (unpicklable) programs — it is
  the determinism oracle the test suite checks the process backend
  against.
* :class:`ProcessBackend` pins one OS process per shard (a persistent
  worker over a :class:`multiprocessing.Pipe`, the same
  process-isolation idea as ``campaign.pool`` but with per-worker
  state, which ``ProcessPoolExecutor`` cannot pin).  A round's batch
  is written to every worker first and the results collected after, so
  shards genuinely advance in parallel — this is where the wall-clock
  win over the single engine comes from.

Workers are rebuilt from ``(scenario name, params)``; no function ever
crosses the pipe.  Each worker reseeds ``random`` with a
sha256-derived child seed (:func:`repro.simengine.rng.derive_seed`,
the campaign-worker scheme) so any host entropy a workload touches is
reproducible per shard.
"""

from __future__ import annotations

import multiprocessing as mp
import random
from typing import Any, Dict, List, Tuple

from ..simengine import DEFAULT_SEED, derive_seed
from .boundary import BoundaryEvent
from .plan import ShardPlan
from .shard import AdvanceResult, ShardReport, ShardRuntime

__all__ = ["InlineBackend", "ProcessBackend", "shard_seed"]


def shard_seed(shard_id: int) -> int:
    """The derived child seed for one shard's worker process."""
    return derive_seed(DEFAULT_SEED, "pdes-shard", shard_id)


class InlineBackend:
    """All shards in this process, advanced one after another."""

    def __init__(self, runtimes: List[ShardRuntime]) -> None:
        self.runtimes = runtimes

    def advance(
        self, batch: List[Tuple[int, float, List[BoundaryEvent]]]
    ) -> List[AdvanceResult]:
        return [
            self.runtimes[shard_id].advance(grant, incoming)
            for shard_id, grant, incoming in batch
        ]

    def reports(self) -> List[ShardReport]:
        return [rt.report() for rt in self.runtimes]

    def close(self) -> None:
        self.runtimes = []


def _shard_main(
    conn,
    scenario_name: str,
    params: Dict[str, Any],
    shards: int,
    shard_id: int,
    observe: bool,
) -> None:
    """Worker entry point: build the shard, serve advance requests."""
    random.seed(shard_seed(shard_id))  # simlint: ignore[determinism-hazard]
    from .scenarios import get_scenario

    scenario = get_scenario(scenario_name)
    ranks, args = scenario.resolve(params)
    plan = ShardPlan.build(
        scenario.machine, ranks, shards,
        mode=scenario.mode, mapping=scenario.mapping,
    )
    runtime = ShardRuntime(plan, shard_id, scenario.program, args, observe=observe)
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "close":
                break
            try:
                if op == "advance":
                    _op, grant, incoming = msg
                    payload = runtime.advance(grant, incoming)
                elif op == "report":
                    payload = runtime.report()
                else:  # pragma: no cover - protocol defense
                    raise ValueError(f"unknown shard op {op!r}")
            except Exception as exc:  # noqa: BLE001 - shipped to the parent
                conn.send(("err", exc))  # simlint: ignore[yield-from-comm]
            else:
                conn.send(("ok", payload))  # simlint: ignore[yield-from-comm]
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        conn.close()


class ProcessBackend:
    """One persistent worker process per shard, batch-parallel advances."""

    def __init__(
        self,
        scenario_name: str,
        params: Dict[str, Any],
        shards: int,
        observe: bool = True,
    ) -> None:
        self._conns = []
        self._procs = []
        for shard_id in range(shards):
            parent, child = mp.Pipe()
            proc = mp.Process(
                target=_shard_main,
                args=(child, scenario_name, params, shards, shard_id, observe),
                daemon=True,
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def advance(
        self, batch: List[Tuple[int, float, List[BoundaryEvent]]]
    ) -> List[AdvanceResult]:
        for shard_id, grant, incoming in batch:
            self._conns[shard_id].send(("advance", grant, incoming))  # simlint: ignore[yield-from-comm]
        return [self._recv(shard_id) for shard_id, _g, _i in batch]

    def reports(self) -> List[ShardReport]:
        for conn in self._conns:
            conn.send(("report",))  # simlint: ignore[yield-from-comm]
        return [self._recv(i) for i in range(len(self._conns))]

    def _recv(self, shard_id: int):
        try:
            status, payload = self._conns[shard_id].recv()
        except EOFError:
            code = self._procs[shard_id].exitcode
            raise RuntimeError(
                f"pdes shard worker {shard_id} died (exit code {code}); "
                "rerun with --backend inline for the full traceback"
            ) from None
        if status == "err":
            raise payload
        return payload

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))  # simlint: ignore[yield-from-comm]
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns, self._procs = [], []
