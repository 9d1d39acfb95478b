"""Shared plumbing: paths, fresh-interpreter steps, statistics, results."""

from __future__ import annotations

import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .hostspeed import normalise

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"
GOLDEN = ROOT / "benchmarks" / "output"
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".perfbench"

#: Seconds one fresh-interpreter step may take before it counts as failed.
STEP_TIMEOUT_S = 150.0


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs; no result is printed."""


def check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    if not GOLDEN.is_dir():
        raise SetupError(f"no golden outputs in {GOLDEN}")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_step(request: Dict[str, Any], workdir: pathlib.Path) -> Dict[str, Any]:
    """Run one step in a fresh interpreter (``perfbench.child``).

    Returns the child's JSON answer plus ``setup_s``: host seconds from
    just before the process was spawned to just before its first timed
    call (interpreter start, imports and any set-up the step does), and
    ``setup_ref_s``, the same in reference seconds.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / f"step-{time.monotonic_ns()}.json"
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child", json.dumps(request), str(out)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=STEP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-5:]
        raise RuntimeError(
            f"step {request.get('step')} exited {proc.returncode}: " + " | ".join(tail)
        )
    answer = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    answer["setup_s"] = answer["ready_at"] - spawned
    # The child's first calibration runs right after set-up.
    cal = answer["calibrations"][0]
    answer["setup_ref_s"] = normalise(answer["setup_s"], cal, cal)
    return answer


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of the largest process: this one or any waited child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)


@dataclass
class WorkloadResult:
    """What one workload run reports back to :mod:`perfbench.run`."""

    tally: Tally
    #: the generic end-to-end metrics, by name
    metrics: Dict[str, float]
    #: the same numbers under workload-specific names, for the report
    named: Dict[str, float]
    #: sample counts and other context for the report
    notes: Dict[str, Any]
    #: per-layer figures (traced runs only)
    layers: Optional[Dict[str, float]] = None


class Clock:
    """The run's measuring budget and the time spent of it."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start
