"""repro.pdes — sharded parallel DES with conservative lookahead.

Shards one cluster simulation into contiguous torus slabs, runs one
engine per shard under a conservative lookahead synchronizer (LBTS
rounds; lookahead = the machine's MPI latency, the minimum time any
cross-shard message needs before taking effect), and deterministically
merges the per-shard streams so sharded runs are **byte-identical** to
the single-engine run.

The front door is ``repro.pdes.run("halo", shards=4,
backend="process")`` (CLI: ``repro pdes run``): run a named scenario
sharded and get canonical artifacts.

Only the dependency-free error surface is imported eagerly; everything
touching :mod:`repro.simmpi` loads lazily, so importing this package
stays cheap and :func:`run` resolves through :func:`__getattr__` on
each access.
"""

from .errors import (
    LinkConflictError,
    PdesError,
    ShardDeadlockError,
    ShardUnsupportedError,
)

__all__ = [
    "PdesError",
    "LinkConflictError",
    "ShardDeadlockError",
    "ShardUnsupportedError",
    # lazy (see __getattr__):
    "run",
    "PdesResult",
    "PdesStats",
    "ShardPlan",
    "ShardRuntime",
    "ShardReport",
    "InlineBackend",
    "ProcessBackend",
    "SCENARIOS",
    "get_scenario",
    "scenario_ids",
]

_LAZY = {
    "run": ("repro.pdes.runner", "run"),
    "PdesResult": ("repro.pdes.runner", "PdesResult"),
    "PdesStats": ("repro.pdes.sync", "PdesStats"),
    "ShardPlan": ("repro.pdes.plan", "ShardPlan"),
    "ShardRuntime": ("repro.pdes.shard", "ShardRuntime"),
    "ShardReport": ("repro.pdes.shard", "ShardReport"),
    "InlineBackend": ("repro.pdes.backend", "InlineBackend"),
    "ProcessBackend": ("repro.pdes.backend", "ProcessBackend"),
    "SCENARIOS": ("repro.pdes.scenarios", "SCENARIOS"),
    "get_scenario": ("repro.pdes.scenarios", "get_scenario"),
    "scenario_ids": ("repro.pdes.scenarios", "scenario_ids"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
