"""High-fidelity candidate evaluation: smooth, binarize, solve, score.

A candidate density is smoothed by a screened-Poisson filter, thresholded at
0.5 onto a refined structured grid, and analyzed with an ersatz-void elastic
model. The objective vector is (max solid stress, solid volume fraction); no
gradients are ever computed here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EmptySolidSet, GridMismatch, SingularSystem, SolveFailed
from .fem2d import BoundaryConditions, ElasticModel, max_stress, solve_displacement, von_mises
from .grid_field import DensityField, GridSpec, resample

INFEASIBLE_SENTINEL = float("inf")


@dataclass(frozen=True)
class DirichletBand:
    """One boundary-cell-deep band with a prescribed filter value.

    ``edge`` is one of left/right/bottom/top; ``lo``/``hi`` bound the band in
    physical coordinates along that edge (y for vertical edges, x for
    horizontal ones).
    """

    edge: str
    lo: float
    hi: float
    value: float

    def __post_init__(self):
        if self.edge not in ("left", "right", "bottom", "top"):
            raise ValueError(f"unknown edge {self.edge!r}")
        if self.value not in (0.0, 1.0):
            raise ValueError("prescribed filter values are 0 or 1")


@dataclass(frozen=True)
class HfConfig:
    r_h: float = 0.01
    refine_factor: int = 2
    threshold: float = 0.5
    dirichlet_bands: tuple[DirichletBand, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.r_h <= 0:
            raise ValueError("r_h must be positive")
        if self.refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        object.__setattr__(self, "dirichlet_bands", tuple(self.dirichlet_bands))

    def refined(self, grid: GridSpec) -> GridSpec:
        return GridSpec(
            grid.nx * self.refine_factor, grid.ny * self.refine_factor, grid.lx, grid.ly
        )


@dataclass(frozen=True, eq=False)
class Objectives:
    """Objective vector and feasibility flag of one evaluated candidate."""

    j: np.ndarray
    feasible: bool

    def __post_init__(self):
        object.__setattr__(self, "j", np.asarray(self.j, dtype=np.float64).ravel())


def infeasible_sentinel() -> Objectives:
    """Structurally broken candidate: +inf objectives, flagged infeasible."""
    return Objectives(np.full(2, INFEASIBLE_SENTINEL), False)


def _dirichlet_cells(grid: GridSpec, band: DirichletBand) -> np.ndarray:
    """Flat indices of the one-cell-deep layer covered by the band."""
    xs = (np.arange(grid.nx) + 0.5) * grid.hx
    ys = (np.arange(grid.ny) + 0.5) * grid.hy
    if band.edge in ("left", "right"):
        i = 0 if band.edge == "left" else grid.nx - 1
        js = np.where((ys >= band.lo) & (ys <= band.hi))[0]
        return js * grid.nx + i
    j = 0 if band.edge == "bottom" else grid.ny - 1
    is_ = np.where((xs >= band.lo) & (xs <= band.hi))[0]
    return j * grid.nx + is_


@functools.lru_cache(maxsize=16)
def _smoother(grid: GridSpec, cfg: HfConfig):
    """Factorized screened-Poisson operator for this grid and config."""
    n = grid.n
    cx = cfg.r_h**2 / grid.hx**2
    cy = cfg.r_h**2 / grid.hy**2
    ii = np.arange(grid.nx)
    jj = np.arange(grid.ny)
    jg, ig = np.meshgrid(jj, ii, indexing="ij")
    e = (jg * grid.nx + ig).ravel()

    rows = [e]
    cols = [e]
    diag = np.ones(n)
    data = [diag]  # the diagonal, accumulated in place below
    for di, dj, coef in ((1, 0, cx), (-1, 0, cx), (0, 1, cy), (0, -1, cy)):
        ni = ig + di
        nj = jg + dj
        ok = ((ni >= 0) & (ni < grid.nx) & (nj >= 0) & (nj < grid.ny)).ravel()
        src = e[ok]
        dst = (nj * grid.nx + ni).ravel()[ok]
        rows.append(src)
        cols.append(dst)
        data.append(np.full(src.size, -coef))
        diag[src] += coef  # missing neighbors drop out: homogeneous Neumann

    fixed = np.zeros(n, dtype=bool)
    fixed_val = np.zeros(n)
    for band in cfg.dirichlet_bands:
        cells = _dirichlet_cells(grid, band)
        fixed[cells] = True
        fixed_val[cells] = band.value

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(data)
    keep = ~fixed[rows]  # fixed rows become identity rows
    idx = np.where(fixed)[0]
    rows = np.concatenate([rows[keep], idx])
    cols = np.concatenate([cols[keep], idx])
    vals = np.concatenate([vals[keep], np.ones(idx.size)])
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    try:
        factor = spla.splu(mat)
    except RuntimeError as exc:
        raise SolveFailed(str(exc)) from exc
    return factor, fixed, fixed_val


def pde_smooth(fld: DensityField, cfg: HfConfig) -> DensityField:
    """Screened-Poisson smoothing -r_h^2 lap(out) + out = in on cell centers.

    Five-point Laplacian, homogeneous Neumann on free boundary cells,
    prescribed values on the configured bands. The discrete maximum principle
    keeps the output inside the hull of input and band values.
    """
    factor, fixed, fixed_val = _smoother(fld.grid, cfg)
    rhs = fld.values.copy()
    rhs[fixed] = fixed_val[fixed]
    out = factor.solve(rhs)
    if not np.all(np.isfinite(out)):
        raise SolveFailed("screened-Poisson solve produced non-finite values")
    return DensityField(fld.grid, np.clip(out, 0.0, 1.0))


def binarize(fld: DensityField, cfg: HfConfig) -> DensityField:
    """Resample to the refined grid and threshold; >= threshold maps to solid."""
    refined = resample(fld, cfg.refined(fld.grid))
    values = np.where(refined.values >= cfg.threshold, 1.0, 0.0)
    return DensityField(refined.grid, values)


def hf_evaluate(
    candidate: DensityField,
    model: ElasticModel,
    bc: BoundaryConditions,
    cfg: HfConfig,
) -> Objectives:
    """Objective vector (max solid stress, volume fraction) for one candidate.

    ``model`` supplies material parameters; ``bc`` must be realized on the
    refined evaluation grid. Candidates with no solid cells or a failing
    solve come back as infeasible sentinels instead of raising, matching the
    population-purge semantics of the evolutionary loop.
    """
    refined_grid = cfg.refined(candidate.grid)
    if bc.grid != refined_grid:
        raise GridMismatch(
            f"boundary conditions realized on {bc.grid}, evaluation grid is {refined_grid}"
        )
    smooth = pde_smooth(candidate, cfg)
    binary = binarize(smooth, cfg)
    hf_model = replace(model, grid=refined_grid)
    try:
        u = solve_displacement(hf_model, binary, bc)
        sf = von_mises(hf_model, binary, u)
        j1 = max_stress(sf, binary, cfg.threshold)
    except (EmptySolidSet, SingularSystem):
        return infeasible_sentinel()
    j2 = float(binary.values.mean())
    return Objectives([j1, j2], True)
