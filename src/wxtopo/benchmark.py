"""The cracked-plate bi-objective benchmark on a 1-by-2 design domain.

The domain is the right half of a square plate whose vertical center line
carries a crack in the upper half: the lower half of the left edge gets
symmetry rollers (ux = 0) while the upper half stays free, leaving the crack
tip at mid-height of the left edge. A uniform unit traction pulls the right
edge outward (tension perpendicular to the crack, the load case that opens
it), the rollers react it, and the bottom-left corner node is pinned in y to
remove the remaining rigid mode at zero reaction. Absolute stress levels are
a convention of this load choice.
"""

from __future__ import annotations

import numpy as np

from .fem2d import BoundaryConditions
from .grid_field import GridSpec
from .hf_eval import DirichletBand


def cracked_plate_bc(grid: GridSpec) -> BoundaryConditions:
    """Boundary conditions of the cracked-plate problem realized on ``grid``."""
    nnx = grid.nx + 1
    node_ys = np.arange(grid.ny + 1) * grid.hy
    # rollers on the lower half of the left edge (symmetry ahead of the crack)
    roller_nodes = np.where(node_ys <= grid.ly / 2.0 + 1e-12)[0] * nnx
    roller_dofs = 2 * roller_nodes
    pin = np.array([2 * 0 + 1])  # uy at the bottom-left corner

    loads = np.zeros(2 * nnx * (grid.ny + 1))
    right = np.arange(grid.ny + 1) * nnx + grid.nx
    nodal = grid.hy  # unit traction
    loads[2 * right] = nodal
    loads[2 * right[0]] = nodal / 2.0
    loads[2 * right[-1]] = nodal / 2.0
    return BoundaryConditions(grid, fixed_dofs=pin, loads=loads, roller_dofs=roller_dofs)


def cracked_plate_bands(grid: GridSpec) -> tuple[DirichletBand, ...]:
    """Solid-prescribed smoothing bands on the loaded and supported edges."""
    return (
        DirichletBand("right", 0.0, grid.ly, 1.0),
        DirichletBand("left", 0.0, grid.ly / 2.0, 1.0),
    )
