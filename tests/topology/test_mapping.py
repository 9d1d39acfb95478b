"""Mapping tests, including hypothesis round-trip properties."""

from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from repro.topology import Mapping, PAPER_FIG2_MAPPINGS, PREDEFINED_MAPPINGS


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        Mapping("XXYZ", (2, 2, 2))
    with pytest.raises(ValueError):
        Mapping("XYZ", (2, 2, 2))


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        Mapping("XYZT", (0, 2, 2))


def test_paper_mapping_lists():
    assert len(PREDEFINED_MAPPINGS) == 12
    assert len(PAPER_FIG2_MAPPINGS) == 8
    assert set(PAPER_FIG2_MAPPINGS) <= set(PREDEFINED_MAPPINGS) | {
        "TYXZ",
        "TZXY",
        "TZYX",
    }


def test_xyzt_order_x_fastest():
    """XYZT: one process per node along X first (paper Section I.A)."""
    m = Mapping("XYZT", (4, 2, 2), tasks_per_node=2)
    assert m.coords(0) == (0, 0, 0, 0)
    assert m.coords(1) == (1, 0, 0, 0)
    assert m.coords(4) == (0, 1, 0, 0)
    assert m.coords(8) == (0, 0, 1, 0)
    # After filling all nodes, T increments.
    assert m.coords(16) == (0, 0, 0, 1)


def test_txyz_order_fills_node_first():
    """TXYZ in VN mode: 'processes 0-3 to the first node, 4-7 to the
    second node (in the X direction)' — paper Section I.A."""
    m = Mapping("TXYZ", (4, 2, 2), tasks_per_node=4)
    for t in range(4):
        assert m.coords(t) == (0, 0, 0, t)
    assert m.coords(4) == (1, 0, 0, 0)
    assert m.coords(7) == (1, 0, 0, 3)


def test_smp_xyzt_equals_txyz():
    """'In SMP mode, the XYZT and TXYZ orderings are identical.'"""
    a = Mapping("XYZT", (4, 4, 2), tasks_per_node=1)
    b = Mapping("TXYZ", (4, 4, 2), tasks_per_node=1)
    for r in range(a.size):
        assert a.coords(r) == b.coords(r)


def test_rank_out_of_range():
    m = Mapping("XYZT", (2, 2, 2))
    with pytest.raises(ValueError):
        m.coords(8)
    with pytest.raises(ValueError):
        m.coords(-1)


def test_rank_of_bad_coords():
    m = Mapping("XYZT", (2, 2, 2))
    with pytest.raises(ValueError):
        m.rank(2, 0, 0)


def test_node_index_flat():
    m = Mapping("XYZT", (2, 2, 2), tasks_per_node=1)
    seen = {m.node_index(r) for r in range(m.size)}
    assert seen == set(range(8))


@st.composite
def _mappings(draw):
    order = draw(st.sampled_from(PREDEFINED_MAPPINGS))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    tpn = draw(st.sampled_from([1, 2, 4]))
    return Mapping(order, shape, tpn)


@given(_mappings(), st.data())
def test_coords_rank_roundtrip(m, data):
    """coords() and rank() are inverse bijections for every mapping."""
    rank = data.draw(st.integers(0, m.size - 1))
    x, y, z, t = m.coords(rank)
    assert m.rank(x, y, z, t) == rank


@given(_mappings())
def test_all_coords_is_bijection(m):
    seen = set()
    for r, c in m.all_coords():
        assert c not in seen
        seen.add(c)
    assert len(seen) == m.size


@given(_mappings(), st.data())
def test_tasks_per_node_honoured(m, data):
    """No node ever hosts more than tasks_per_node ranks."""
    from collections import Counter

    counts = Counter(m.node_of(r) for r in range(m.size))
    assert max(counts.values()) == m.tasks_per_node


@pytest.mark.parametrize("order", sorted("".join(p) for p in permutations("XYZT")))
def test_node_table_matches_node_of(order):
    """Row r of node_table() is node_of(r), for all 24 orders."""
    for shape, tpn in (((3, 2, 4), 4), ((4, 1, 3), 2), ((2, 3, 1), 1)):
        m = Mapping(order, shape, tpn)
        table = m.node_table()
        assert table.shape == (m.size, 3)
        assert [tuple(row) for row in table.tolist()] == [
            m.node_of(r) for r in range(m.size)
        ]
