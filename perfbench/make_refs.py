"""Record the references the benchmark checks outputs against.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes ``perfbench/refs/points.json`` (sha256 of every pool point's
artifact bytes, as ``repro run`` and the campaign runner write them)
and ``perfbench/refs/des.json`` (each message-level run's simulated
results, floats as ``repr``).  Run it only when a deliberate model
change alters these outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

from perfbench import des, points  # noqa: E402
from perfbench.common import REFS  # noqa: E402


def point_digests():
    from repro.core.evaluation import run_experiment

    out = {}
    for point in points.pool():
        text = run_experiment(point[0], **point[1])
        payload = text if text.endswith("\n") else text + "\n"
        out[points.point_key(point)] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return out


def des_results():
    out = {}
    for ops in (des.FULL_OPS, des.SMOKE_OPS):
        for op, thunk in zip(ops, des.prepare(ops)):
            result = thunk()
            result["value"] = repr(result["value"])
            out[op["name"]] = result
    return out


def main() -> int:
    REFS.mkdir(exist_ok=True)
    for name, doc in (("points.json", point_digests()), ("des.json", des_results())):
        path = REFS / name
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(doc)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
