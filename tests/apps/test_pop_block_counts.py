"""POP block ocean counts: the summed-area table against per-block sums.

``_block_ocean_counts`` reads each block's ocean-point count off one
summed-area table of the land mask; summing each block's slice of the
mask is the oracle.  The cases include decompositions whose block edges
do not divide the grid evenly.
"""

import numpy as np
import pytest

from repro.apps.pop import decompose, PopGrid, TENTH_DEGREE
from repro.apps.pop.grid import _block_ocean_counts

SEED = 101


def per_slice_counts(grid, px, py, seed=SEED):
    ocean = ~grid.land_mask(seed)
    ys = np.linspace(0, grid.ny, py + 1, dtype=int)
    xs = np.linspace(0, grid.nx, px + 1, dtype=int)
    counts = np.array(
        [
            ocean[ys[j] : ys[j + 1], xs[i] : xs[i + 1]].sum()
            for j in range(py)
            for i in range(px)
        ],
        dtype=float,
    )
    return float(counts.mean()), float(counts.max())


def counts(grid, px, py, seed=SEED):
    return _block_ocean_counts(grid.nx, grid.ny, px, py, grid.ocean_fraction, seed)


@pytest.mark.parametrize("processes, blocks", [(3000, (75, 40)), (20000, (160, 125))])
def test_tenth_degree_decompositions(processes, blocks):
    """75x40 blocks tile 3600x2400 evenly; 160x125 leaves uneven edges."""
    px, py = decompose(processes, TENTH_DEGREE.nx, TENTH_DEGREE.ny)
    assert (px, py) == blocks
    assert counts(TENTH_DEGREE, px, py) == per_slice_counts(TENTH_DEGREE, px, py)


@pytest.mark.parametrize("processes", [1, 7, 64, 500, 3000, 20000])
def test_small_grid_matches_per_slice_sums(processes):
    grid = PopGrid(360, 240, 40)
    px, py = decompose(processes, grid.nx, grid.ny)
    assert counts(grid, px, py) == per_slice_counts(grid, px, py)


def test_other_seed_and_ocean_fraction():
    grid = PopGrid(360, 240, 40, ocean_fraction=0.5)
    assert counts(grid, 9, 7, seed=7) == per_slice_counts(grid, 9, 7, seed=7)
