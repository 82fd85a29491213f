"""Discrete identities the energy estimates rely on, property-tested.

On a periodic grid the central difference along each axis is skew-adjoint
under the node sum, so divergence is minus the adjoint of the gradient:

    sum_x u . div F  ==  - sum_x grad u . F

for every node field u (N components) and flux field F (N x n).  This is
the discrete integration by parts behind the Caccioppoli-type energy
inequality; it holds to round-off, not to truncation order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradbound import Boundary, Grid, divergence
from gradbound.mesh import gradient_of


@st.composite
def periodic_fields(draw):
    """An anisotropic periodic grid with node samples u and flux samples F."""
    n = draw(st.sampled_from((2, 3)))
    cells = tuple(draw(st.integers(4, 9)) for _ in range(n))
    extent = tuple(draw(st.floats(0.3, 3.0)) for _ in range(n))
    grid = Grid(n, extent, cells, Boundary.PERIODIC)
    N = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal(grid.node_shape + (N,))
    F = rng.standard_normal(grid.node_shape + (N, n))
    return grid, u, F


@settings(max_examples=80, deadline=None)
@given(case=periodic_fields())
def test_summation_by_parts_on_periodic_grids(case):
    grid, u, F = case
    left = u * divergence(grid, F)
    right = gradient_of(grid, u) * F
    scale = np.abs(left).sum() + np.abs(right).sum()
    assert abs(left.sum() + right.sum()) <= 1e-12 * scale
