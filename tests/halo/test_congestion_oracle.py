"""The vectorized HALO congestion analysis against the per-hop loop.

``HaloBenchmark._analyze_phases`` places every rank with
``Mapping.node_table`` and sums link loads with
``Torus3D.max_link_load``.  The per-hop loop it replaced routes every
message through ``Mapping.node_of`` and ``Torus3D.route``; it lives on
here (less one unused local) as the oracle the fast path must match
exactly.
"""

from itertools import permutations
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.halo import HaloBenchmark, neighbors2d
from repro.halo.bench import _PhaseShape
from repro.machines import BGP

ALL_ORDERS = sorted("".join(p) for p in permutations("XYZT"))
MODE_OF_TASKS = {1: "SMP", 2: "DUAL", 4: "VN"}


def per_hop_phases(hb: HaloBenchmark):
    """The per-hop congestion loop: one ``route`` per network message."""
    phases = []
    for phase in (0, 1):
        loads: Dict[tuple, float] = {}
        max_hops = 0
        worst_net, worst_shm = 0, 0
        for rank in range(hb.ranks):
            nb = neighbors2d(rank, hb.grid)
            if phase == 0:
                msgs = [(nb["north"], 1.0), (nb["south"], 2.0)]
            else:
                msgs = [(nb["west"], 1.0), (nb["east"], 2.0)]
            net = shm = 0
            src_node = hb.mapping.node_of(rank)
            for peer, units in msgs:
                dst_node = hb.mapping.node_of(peer)
                if src_node == dst_node:
                    shm += 1
                    continue
                net += 1
                route = hb._torus.route(src_node, dst_node)
                max_hops = max(max_hops, len(route))
                for key in route:
                    loads[key] = loads.get(key, 0.0) + units
            worst_net = max(worst_net, net)
            worst_shm = max(worst_shm, shm)
        phases.append(
            _PhaseShape(
                max_link_units=max(loads.values()) if loads else 0.0,
                max_hops=max_hops,
                net_msgs=worst_net,
                shm_msgs=worst_shm,
            )
        )
    return phases


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL_ORDERS),
    st.sampled_from(sorted(MODE_OF_TASKS)),
    st.integers(1, 24),
    st.integers(1, 24),
)
def test_vectorized_phases_match_per_hop_loop(order, tasks, px, py):
    hb = HaloBenchmark(BGP, (px, py), mode=MODE_OF_TASKS[tasks], mapping=order)
    assert hb.mode.tasks_per_node == tasks
    assert hb._analyze_phases() == per_hop_phases(hb)


@pytest.mark.parametrize("order", ALL_ORDERS)
@pytest.mark.parametrize("tasks", sorted(MODE_OF_TASKS))
def test_every_mapping_order_matches_per_hop_loop(order, tasks):
    hb = HaloBenchmark(BGP, (8, 6), mode=MODE_OF_TASKS[tasks], mapping=order)
    assert hb._analyze_phases() == per_hop_phases(hb)


@pytest.mark.parametrize(
    "grid, mode, mapping",
    [((128, 64), "VN", "TXYZ"), ((64, 32), "SMP", "XYZT")],
)
def test_fig2_configurations_match_per_hop_loop(grid, mode, mapping):
    """Exact equality at paper scale: Fig. 2(a) and 2(b)."""
    hb = HaloBenchmark(BGP, grid, mode=mode, mapping=mapping)
    assert hb._analyze_phases() == per_hop_phases(hb)


def test_cross_check_routes_one_message_per_phase(monkeypatch):
    """The run-time cross-check routes the longest message per phase."""
    from repro.topology.torus import Torus3D

    calls = []
    original = Torus3D.route

    def counting(self, src, dst, *args, **kwargs):
        route = original(self, src, dst, *args, **kwargs)
        calls.append(len(route))
        return route

    monkeypatch.setattr(Torus3D, "route", counting)
    hb = HaloBenchmark(BGP, (32, 32), mode="VN", mapping="XYZT")
    phases = hb._analyze_phases()
    assert calls == [shape.max_hops for shape in phases]


def test_cross_check_raises_on_disagreement(monkeypatch):
    from repro.topology.torus import Torus3D

    real = Torus3D.max_link_load

    def off_by_one(self, src, dst, weights):
        load, hops = real(self, src, dst, weights)
        return load, hops + 1

    monkeypatch.setattr(Torus3D, "max_link_load", off_by_one)
    hb = HaloBenchmark(BGP, (16, 16), mode="VN", mapping="XYZT")
    with pytest.raises(RuntimeError, match="vectorized analysis"):
        hb._analyze_phases()
