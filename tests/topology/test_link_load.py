"""Vectorized fault-free link loads against per-hop route accumulation.

``Torus3D.max_link_load`` sums a message set's link loads with
difference arrays instead of walking each route; summing ``route()``
hop by hop is the oracle.  Extents 1-6 cover absent dimensions, the
extent-2 ring (both directions are one link pair, ties go +) and odd
and even wraps.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machines import BGP
from repro.topology import Torus3D

shapes = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


@st.composite
def message_sets(draw):
    shape = draw(shapes)
    coord = st.tuples(*(st.integers(0, ext - 1) for ext in shape))
    msgs = draw(
        st.lists(st.tuples(coord, coord, st.integers(1, 9)), max_size=40)
    )
    return shape, msgs


def per_hop(torus, msgs):
    loads, max_hops = {}, 0
    for src, dst, weight in msgs:
        route = torus.route(src, dst)
        max_hops = max(max_hops, len(route))
        for key in route:
            loads[key] = loads.get(key, 0) + weight
    return max(loads.values(), default=0), max_hops


def as_arrays(msgs):
    src = np.array([m[0] for m in msgs], dtype=np.int64).reshape(-1, 3)
    dst = np.array([m[1] for m in msgs], dtype=np.int64).reshape(-1, 3)
    weights = np.array([m[2] for m in msgs], dtype=np.int64)
    return src, dst, weights


@settings(max_examples=200, deadline=None)
@given(message_sets())
def test_max_link_load_matches_per_hop_routes(case):
    shape, msgs = case
    torus = Torus3D(shape, BGP.torus)
    assert torus.max_link_load(*as_arrays(msgs)) == per_hop(torus, msgs)


@settings(max_examples=100, deadline=None)
@given(message_sets())
def test_route_lengths_match_route(case):
    shape, msgs = case
    torus = Torus3D(shape, BGP.torus)
    src, dst, _ = as_arrays(msgs)
    assert torus.route_lengths(src, dst).tolist() == [
        len(torus.route(s, d)) for s, d, _ in msgs
    ]


def test_float_weights_and_empty_set():
    torus = Torus3D((4, 4, 2), BGP.torus)
    src = np.array([[0, 0, 0], [3, 0, 0]])
    dst = np.array([[2, 0, 0], [1, 0, 1]])
    assert torus.max_link_load(src, dst, [1.0, 2.0]) == (3.0, 3)
    empty = np.zeros((0, 3), dtype=np.int64)
    assert torus.max_link_load(empty, empty, []) == (0.0, 0)


def test_raises_on_failed_link():
    torus = Torus3D((4, 4, 4), BGP.torus)
    torus.fail_link(((0, 0, 0), (1, 0, 0)))
    src, dst = np.array([[0, 1, 1]]), np.array([[2, 1, 1]])
    with pytest.raises(ValueError, match="fault-free"):
        torus.max_link_load(src, dst, [1])


def test_rejects_bad_endpoints():
    torus = Torus3D((4, 4, 4), BGP.torus)
    with pytest.raises(ValueError, match="outside"):
        torus.max_link_load(np.array([[0, 0, 4]]), np.array([[0, 0, 0]]), [1])
    with pytest.raises(ValueError, match="matching"):
        torus.max_link_load(np.array([[0, 0, 0]]), np.array([[0, 0]]), [1])
