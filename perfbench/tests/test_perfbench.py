"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py --smoke`` as a subprocess from the
repository root, the way the benchmark is run for real.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import des, paper, points, serve, sweep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODULES = {"paper": paper, "des": des, "sweep": sweep, "serve": serve}
SEED = 3


def bench(*args: str, cwd: pathlib.Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result, lines


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_metrics_are_those_of_benchmark_json(workload, trace):
    proc, result, _ = bench("--workload", workload, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        # run.py refuses to print when a layer the workload reaches reads 0.
        layers = MODULES[workload].LAYERS
        assert all(result["metrics"][name]["value"] for name in layers)


def test_a_reached_layer_reading_zero_or_missing_is_refused():
    from perfbench.run import _unreached

    names = ["a.s", "b.calls", "c.calls"]
    assert _unreached(["a.s", "b.calls"], {"a.s": 0.5, "b.calls": 2.0}, names) == []
    assert _unreached(["a.s", "b.calls"], {"a.s": 0.0}, names) == ["a.s", "b.calls"]
    assert _unreached(["x.s"], {"x.s": 1.0}, names) == ["x.s"]


def test_every_per_layer_metric_is_reached_by_a_workload():
    reached = {name for module in MODULES.values() for name in module.LAYERS}
    # Zero in a healthy run: nothing is shed and no lease expires.
    healthy_zero = {"serve.shed", "serve.stale_discards"}
    assert reached | healthy_zero == {m["name"] for m in SPEC["per_layer"]}


def _corrupt_des(refs: pathlib.Path) -> None:
    path = refs / "des.json"
    doc = json.loads(path.read_text())
    doc["pop-replay-16"]["value"] = repr(float(doc["pop-replay-16"]["value"]) * 1.000001)
    path.write_text(json.dumps(doc))


def _corrupt_point(refs: pathlib.Path, point) -> None:
    path = refs / "points.json"
    doc = json.loads(path.read_text())
    doc[points.point_key(point)] = "0" * 64
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_is_caught(workload, tmp_path):
    """Corrupt a reference in a copy of the benchmark and run the copy."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copytree(ROOT / "benchmarks" / "output", tmp_path / "benchmarks" / "output")
    (tmp_path / "src").symlink_to(ROOT / "src")
    refs, golden = tmp_path / "perfbench" / "refs", tmp_path / "benchmarks" / "output"
    if workload == "paper":
        (golden / "table1.txt").write_text("not the paper's Table 1\n")
    elif workload == "des":
        _corrupt_des(refs)
    elif workload == "sweep":
        _corrupt_point(refs, points.sweep_points(SEED, 2, 2)[0])
    else:
        # A new campaign's point and a cached campaign's point.
        for item in points.serve_schedule(SEED, 3)[:4:3]:
            _corrupt_point(refs, points.spec_points(item["spec"])[0])
    proc, result, lines = bench("--workload", workload, "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert any("FAILED" in line for line in lines)


def test_paper_passes_run_in_fresh_interpreters():
    # A traced run makes at least one untraced and one traced pass.
    proc, result, lines = bench("--workload", "paper", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(next(l for l in lines if "# child_pids:" in l).split(":", 1)[1])
    assert len(pids) >= 2
    assert len(set(pids)) == len(pids)
    assert os.getpid() not in pids
    # Each pass also reports its lru_caches empty at start; a warm one
    # would be counted as a failed operation.
    assert result["failed"] == 0


def test_fresh_interpreter_check_detects_a_warm_process():
    """The warm-cache evidence a pass reports is real: a process that
    already computed the POP figures reports nonzero entries."""
    from perfbench.child import warm_cache_entries

    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.evaluation import run_experiment

    run_experiment("fig4")
    assert warm_cache_entries() > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, result, _ = bench("--workload", "paper", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
