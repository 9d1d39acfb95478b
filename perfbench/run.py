"""The repo benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Prints a readable report and, as the
last line of standard output, one JSON object::

    {"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a run whose layers are wrapped by ``perfbench/tracing.py``; each
layer the workload reaches (its module's ``LAYERS``) must read nonzero,
and the layers it does not reach read 0.  Exit status: 0 when every
output matched its reference, 1 when one did not, or (no result
printed) when a reached layer read 0, 2 when the checkout lacks what
the benchmark needs (no result printed).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402
from perfbench.common import (  # noqa: E402
    Clock,
    SetupError,
    Tally,
    WorkloadResult,
    median,
    peak_rss_mb,
)

WORKLOADS = ("paper", "des", "sweep", "serve")


class Context:
    """Options of one run plus the round loop and result assembly."""

    def __init__(self, args: argparse.Namespace, module) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.setup_probes = 1 if args.smoke else getattr(module, "SETUP_PROBES", 3)
        self.work = common.WORK / f"run-{os.getpid()}"
        self.trace_path = common.WORK / "traces" / f"{self.workload}-seed{self.seed}.json"

    def round_loop(
        self,
        clock: Clock,
        one_round: Callable[[bool], Dict[str, Any]],
        in_process: bool = False,
        min_rounds: int = 1,
    ) -> List[Dict[str, Any]]:
        """Repeat rounds while another one fits in the time budget.

        Always at least ``min_rounds``, even past the budget.  A traced
        run spends the first half of the budget untraced and the second
        half traced, at least one round each, so it can report its own
        tracing overhead.  ``in_process`` rounds are traced here; the
        others trace themselves in their child process.
        """
        rounds: List[Dict[str, Any]] = []
        phases = [(False, clock.seconds / 2, 1), (True, clock.seconds, 1)] if self.trace else [
            (False, clock.seconds, min_rounds)
        ]
        for traced, until, at_least in phases:
            took: List[float] = []
            while len(took) < at_least or clock.elapsed() + median(took) <= until:
                t0 = time.monotonic()
                answer = self._one(one_round, traced, in_process)
                took.append(time.monotonic() - t0)
                answer["traced"] = traced
                rounds.append(answer)
        return rounds

    def _one(self, one_round, traced: bool, in_process: bool) -> Dict[str, Any]:
        if not (traced and in_process):
            return one_round(traced)
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
        try:
            answer = one_round(True)
        finally:
            uninstall()
        answer["summary"] = tracer.summary()
        answer["events"] = tracer.chrome_events(os.getpid())
        return answer

    def finish(
        self,
        tally: Tally,
        metrics: Dict[str, float],
        named: Dict[str, float],
        notes: Dict[str, Any],
        rounds: List[Dict[str, Any]],
        extra: Optional[Dict[str, float]] = None,
    ) -> WorkloadResult:
        metrics = dict(metrics)
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["success_rate"] = (tally.attempted - tally.failed) / max(tally.attempted, 1)
        result = WorkloadResult(tally, metrics, named, notes)
        if self.trace:
            from perfbench.tracing import layer_metrics, merge_summaries, write_chrome_trace

            traced = [r for r in rounds if r["traced"]]
            untraced = [r for r in rounds if not r["traced"]]
            extra = dict(extra or {})
            walls = {
                flag: median([r.get("ref_wall_s", r["wall_s"]) for r in group])
                for flag, group in ((True, traced), (False, untraced))
            }
            overhead = walls[True] / walls[False]
            extra["trace.overhead_pct"] = (overhead - 1.0) * 100.0
            n = sum(r.get("rounds", 1) for r in traced)
            result.layers = layer_metrics(
                merge_summaries([r["summary"] for r in traced]), n, extra
            )
            events = [e for r in traced for e in r["events"]]
            write_chrome_trace(str(self.trace_path), events)
            notes["trace_file"] = str(self.trace_path.relative_to(common.ROOT))
            notes["traced_rounds"] = n
        return result


def _load_names() -> Dict[str, List[Dict[str, Any]]]:
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _unreached(reached: List[str], layers: Dict[str, float], names: List[str]) -> List[str]:
    """The layers ``reached`` that the traced run left at 0 or did not
    record at all, and any that ``BENCHMARK.json`` does not name."""
    return [n for n in reached if not layers.get(n)] + sorted(set(reached) - set(names))


def _report(args, result: WorkloadResult, units: Dict[str, str], shown: Dict[str, float]) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    tally = result.tally
    rate = tally.failed / max(tally.attempted, 1)
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(error_rate {rate:.4g})")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    for name, value in shown.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '')}")
    if not args.trace:
        for name, value in result.named.items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            print(f"  {name:34s} {value:14.6g} {unit}")
    for name, value in result.notes.items():
        print(f"  # {name}: {value}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        common.check_checkout()
        spec = _load_names()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import importlib

    module = importlib.import_module(f"perfbench.{args.workload}")
    ctx = Context(args, module)
    try:
        result = module.run(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    section = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}
    if args.trace:
        problem = _unreached(module.LAYERS, result.layers, names)
    else:
        problem = sorted(set(names) ^ set(result.metrics))
    if problem:
        print(f"perfbench: metrics missing, zero or unknown: {problem}", file=sys.stderr)
        return 1
    values = result.layers if args.trace else result.metrics
    # A layer this workload does not reach reads 0.
    shown = {name: float(values.get(name, 0.0)) for name in names}
    _report(args, result, units, shown)
    tally = result.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": shown[n], "unit": units[n]} for n in names},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
