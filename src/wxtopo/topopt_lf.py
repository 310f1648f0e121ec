"""Low-fidelity gradient-based optimization that seeds the initial population.

Each run minimizes the P-norm aggregated stress subject to a volume budget,
with a linear-hat density filter and a single-constraint method-of-moving-
asymptotes update. The seed point (s1, s2) in [0,1]^2 picks the filter radius
and volume bound, and sweeping a small grid of seed points yields the diverse
starting designs the evolutionary stage feeds on.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

# LF runs stay on threads: their banded LAPACK factors release the GIL, so
# forked runs gain nothing and pay for the copy-on-write faults of the
# pages they touch (a two-worker desk sweep took a median 0.50 s forked
# against 0.46 s on threads, 15 alternating rounds, one BLAS thread)
from ._pool import thread_map as parallel_map
from .errors import DualBisectionFailed, GridMismatch
from .fem2d import BoundaryConditions, ElasticModel, pnorm_objective_grad
from .grid_field import DensityField, GridSpec

MOVE_LIMIT_DEFAULT = 0.05
LF_MAX_ITER_DEFAULT = 150


@dataclass(frozen=True, eq=False)
class FilterKernel:
    """Linear-hat neighborhood filter, applied as a stencil correlation.

    Weights are w = 1 - dist/radius over cells within ``radius`` of each
    center, normalized by their in-grid sum ``norm``; a constant field is
    therefore reproduced exactly. This is the ``conv2(x, h) ./ conv2(ones, h)``
    filter of the 88-line code (Andreassen et al., SMO 43, 2011). The stencil
    is point-symmetric, so the gradient chain rule, the transpose, is the same
    correlation applied after the normalization.
    """

    grid: GridSpec
    radius: float
    _stencil: np.ndarray = field(init=False, repr=False)
    _norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("filter radius must be positive")
        g = self.grid
        # offsets of a whole grid width or more reach no cell
        mi = min(int(math.floor(self.radius / g.hx)), g.nx - 1)
        mj = min(int(math.floor(self.radius / g.hy)), g.ny - 1)
        dj, di = np.mgrid[-mj: mj + 1, -mi: mi + 1]
        stencil = np.maximum(0.0, 1.0 - np.hypot(di * g.hx, dj * g.hy) / self.radius)
        object.__setattr__(self, "_stencil", stencil)
        object.__setattr__(self, "_norm", self._correlate(np.ones(g.n)))

    def _correlate(self, values: np.ndarray) -> np.ndarray:
        cells = np.asarray(values, dtype=np.float64).reshape(self.grid.ny, self.grid.nx)
        return ndimage.correlate(cells, self._stencil, mode="constant").ravel()

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._correlate(values) / self._norm

    def chain(self, grad: np.ndarray) -> np.ndarray:
        """Pull a gradient wrt filtered values back to raw design variables."""
        return self._correlate(grad / self._norm)


def density_filter(kernel: FilterKernel, fld: DensityField) -> DensityField:
    if kernel.grid != fld.grid:
        raise GridMismatch("filter kernel and field grids differ")
    return DensityField(fld.grid, np.clip(kernel.apply(fld.values), 0.0, 1.0))


@dataclass(frozen=True)
class SeedPoint:
    """Normalized coordinates of one low-fidelity run in the seeding box."""

    s1: float
    s2: float

    def __post_init__(self):
        for name, v in (("s1", self.s1), ("s2", self.s2)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class LfBounds:
    """Physical ranges the seed coordinates interpolate."""

    r_min: float = 0.03
    r_max: float = 0.12
    v_min: float = 0.30
    v_max: float = 0.60

    def __post_init__(self):
        if not 0.0 < self.r_min <= self.r_max:
            raise ValueError("need 0 < r_min <= r_max")
        if not 0.0 < self.v_min <= self.v_max <= 1.0:
            raise ValueError("need 0 < v_min <= v_max <= 1")

    def radius(self, seed: SeedPoint) -> float:
        return self.r_min + seed.s1 * (self.r_max - self.r_min)

    def volume(self, seed: SeedPoint) -> float:
        return self.v_min + seed.s2 * (self.v_max - self.v_min)


@dataclass
class LfResult:
    density: DensityField | None
    objective_history: list[float]
    constraint_residual: float
    iterations: int
    seed: SeedPoint
    radius: float
    volume: float
    non_improving: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.density is not None


class MmaState:
    """Asymptote memory carried between successive update calls."""

    def __init__(self, n: int):
        self.iteration = 0
        self.xold1 = np.zeros(n)
        self.xold2 = np.zeros(n)
        self.low = np.zeros(n)
        self.upp = np.ones(n)


_ASY_INIT = 0.5
_ASY_INCR = 1.2
_ASY_DECR = 0.7
_ALBEFA = 0.1
_RAA0 = 1e-5
_EPS_MIX = 1e-3


def _dual_multiplier(con: Callable[[float], float]) -> float:
    """The multiplier of the one-constraint dual: the feasible end of a zeroin bracket.

    ``con(lam)`` is the subproblem constraint at the primal minimizer for
    multiplier ``lam``, non-increasing in ``lam``. The multiplier is 0 when
    that point is feasible. Otherwise [0, 1] is doubled until its upper end
    is feasible, and Brent's zeroin (*Algorithms for Minimization without
    Derivatives*, 1973, ch. 4) shrinks that bracket [b, c] around the sign
    change: inverse quadratic or secant steps, bisection when they fail to
    shrink it fast enough, until it is 4 ulps wide or ``con(b)`` is exactly
    0. The end where ``con <= 0`` is returned, so the step is feasible even
    where ``con`` is rounding noise near its root.
    """
    fc = con(0.0)
    if fc <= 0.0:
        return 0.0
    c, b = 0.0, 1.0
    for _ in range(200):
        fb = con(b)
        if fb <= 0.0:
            break
        c, fc, b = b, fb, b * 2.0
    else:
        raise DualBisectionFailed("could not bracket the dual multiplier")

    a, fa = c, fc
    while True:
        prev_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * sys.float_info.epsilon * abs(b)
        step = 0.5 * (c - b)
        if abs(step) <= tol or fb == 0.0:
            return b if fb <= 0.0 else c
        if abs(prev_step) >= tol and abs(fa) > abs(fb):
            cb = c - b
            if a == c:
                t1 = fb / fa
                p, q = cb * t1, 1.0 - t1
            else:
                q, t1, t2 = fa / fc, fb / fc, fb / fa
                p = t2 * (cb * q * (q - t1) - (b - a) * (t1 - 1.0))
                q = (q - 1.0) * (t1 - 1.0) * (t2 - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if p < 0.75 * cb * q - 0.5 * abs(tol * q) and p < abs(0.5 * prev_step * q):
                step = p / q
        if abs(step) < tol:
            step = math.copysign(tol, step)
        a, fa = b, fb
        b += step
        fb = con(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa


def mma_update(
    x: DensityField,
    grad_obj: np.ndarray,
    grad_con: np.ndarray,
    constraint_value: float,
    move: float,
    state: MmaState,
) -> DensityField:
    """One moving-asymptotes step for a single inequality constraint.

    Builds the standard convex separable approximation around the current
    point (Svanberg, IJNME 24, 1987), then solves its dual in the single
    multiplier by a doubling bracket and Brent's zeroin, taking the end of
    the final bracket where the subproblem constraint holds (see
    ``_dual_multiplier``). Every variable stays within ``move`` of its current
    value and inside [0, 1].
    """
    if move <= 0:
        raise ValueError("move limit must be positive")
    xv = x.values
    g0 = np.asarray(grad_obj, dtype=np.float64).ravel()
    gc = np.asarray(grad_con, dtype=np.float64).ravel()
    if g0.size != xv.size or gc.size != xv.size:
        raise ValueError("gradient length mismatch")
    if not (np.all(np.isfinite(g0)) and np.all(np.isfinite(gc))):
        raise ValueError("gradients must be finite")

    if state.iteration < 2:
        low = xv - _ASY_INIT
        upp = xv + _ASY_INIT
    else:
        trend = (xv - state.xold1) * (state.xold1 - state.xold2)
        factor = np.ones_like(xv)
        factor[trend > 0] = _ASY_INCR
        factor[trend < 0] = _ASY_DECR
        low = xv - factor * (state.xold1 - state.low)
        upp = xv + factor * (state.upp - state.xold1)
        low = np.clip(low, xv - 10.0, xv - 0.01)
        upp = np.clip(upp, xv + 0.01, xv + 10.0)

    alfa = np.maximum.reduce([np.zeros_like(xv), low + _ALBEFA * (xv - low), xv - move])
    beta = np.minimum.reduce([np.ones_like(xv), upp - _ALBEFA * (upp - xv), xv + move])

    ux2 = (upp - xv) ** 2
    xl2 = (xv - low) ** 2
    mix = _EPS_MIX * np.abs(g0) + _RAA0
    p0 = ux2 * (np.maximum(g0, 0.0) + mix)
    q0 = xl2 * (np.maximum(-g0, 0.0) + mix)
    mixc = _EPS_MIX * np.abs(gc) + _RAA0
    p1 = ux2 * (np.maximum(gc, 0.0) + mixc)
    q1 = xl2 * (np.maximum(-gc, 0.0) + mixc)
    # subproblem constraint bound chosen so the approximation matches the
    # true constraint value at the expansion point
    b = float(np.sum(p1 / (upp - xv) + q1 / (xv - low)) - constraint_value)

    def primal(lam: float) -> np.ndarray:
        sp_ = np.sqrt(p0 + lam * p1)
        sq_ = np.sqrt(q0 + lam * q1)
        return np.clip((low * sp_ + upp * sq_) / (sp_ + sq_), alfa, beta)

    def con(lam: float) -> float:
        xn = primal(lam)
        return float(np.sum(p1 / (upp - xn) + q1 / (xn - low)) - b)

    x_new = primal(_dual_multiplier(con))
    state.xold2 = state.xold1
    state.xold1 = xv.copy()
    state.low = low
    state.upp = upp
    state.iteration += 1
    return DensityField(x.grid, x_new)


def lf_optimize(
    model: ElasticModel,
    bc: BoundaryConditions,
    seed: SeedPoint,
    p_norm: float,
    max_iter: int = LF_MAX_ITER_DEFAULT,
    bounds: LfBounds = LfBounds(),
    move: float = MOVE_LIMIT_DEFAULT,
) -> LfResult:
    """Run one seeded low-fidelity optimization to a filtered density.

    The loop is filter -> solve -> aggregated stress and adjoint gradient
    (chained through the filter) -> MMA step. The volume budget is enforced
    on the filtered (physical) density, so the returned field satisfies it
    directly. There is no stochastic element: identical inputs give an
    identical result.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    grid = model.grid
    radius = bounds.radius(seed)
    vol_bound = bounds.volume(seed)
    kernel = FilterKernel(grid, radius)
    cell_v = grid.hx * grid.hy * model.thickness
    total_v = cell_v * grid.n

    x = DensityField(grid, np.full(grid.n, vol_bound))
    state = MmaState(grid.n)
    history: list[float] = []
    j_ref = None
    filtered = density_filter(kernel, x)
    grad_con = kernel.chain(np.full(grid.n, cell_v))
    for _ in range(max_iter):
        j_val, grad_f = pnorm_objective_grad(model, filtered, bc, p_norm)
        history.append(j_val)
        if j_ref is None:
            j_ref = j_val if j_val > 0 else 1.0
        grad_obj = kernel.chain(grad_f) / j_ref
        g_con = cell_v * filtered.values.sum() - vol_bound * total_v
        x = mma_update(x, grad_obj, grad_con, g_con, move, state)
        filtered = density_filter(kernel, x)

    residual = max(0.0, cell_v * filtered.values.sum() - vol_bound * total_v)
    tail = 20
    non_improving = len(history) > tail and history[-1] > history[-1 - tail]
    return LfResult(
        density=filtered,
        objective_history=history,
        constraint_residual=residual,
        iterations=len(history),
        seed=seed,
        radius=radius,
        volume=vol_bound,
        non_improving=non_improving,
    )


def check_sweep_settings(
    model: ElasticModel, n_s1: int, n_s2: int, p_norm: float, max_iter: int, move: float
) -> None:
    """Raise ValueError for sweep settings on which every run would fail."""
    if n_s1 < 1 or n_s2 < 1:
        raise ValueError("need at least one division per seed axis (n_s1, n_s2 >= 1)")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if move <= 0:
        raise ValueError("move limit must be positive")
    if p_norm < 1:
        raise ValueError("p_norm must be >= 1")
    if model.q_rel * p_norm <= 1.0:
        raise ValueError("need q_rel * p_norm > 1 for a bounded void gradient")


def seed_grid(n_s1: int, n_s2: int) -> list[SeedPoint]:
    """Uniform seed lattice over [0,1]^2, s1-major; a single division sits at 0."""
    s1s = np.linspace(0.0, 1.0, n_s1) if n_s1 > 1 else np.array([0.0])
    s2s = np.linspace(0.0, 1.0, n_s2) if n_s2 > 1 else np.array([0.0])
    return [SeedPoint(float(s1), float(s2)) for s1 in s1s for s2 in s2s]


def seed_sweep(
    model: ElasticModel,
    bc: BoundaryConditions,
    n_s1: int,
    n_s2: int,
    p_norm: float,
    max_iter: int = LF_MAX_ITER_DEFAULT,
    bounds: LfBounds = LfBounds(),
    move: float = MOVE_LIMIT_DEFAULT,
    workers: int = 1,
) -> list[LfResult]:
    """Run n_s1 * n_s2 independent optimizations over the seed lattice.

    Settings on which every run would fail raise ValueError up front. A
    failed run is returned as a flagged placeholder rather than aborting the
    sweep; callers exclude those from the population.
    """
    check_sweep_settings(model, n_s1, n_s2, p_norm, max_iter, move)
    seeds = seed_grid(n_s1, n_s2)

    def run(seed: SeedPoint) -> LfResult:
        try:
            return lf_optimize(model, bc, seed, p_norm, max_iter, bounds, move)
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad runs
            return LfResult(
                density=None,
                objective_history=[],
                constraint_residual=np.inf,
                iterations=0,
                seed=seed,
                radius=bounds.radius(seed),
                volume=bounds.volume(seed),
                error=f"{type(exc).__name__}: {exc}",
            )

    return parallel_map(run, seeds, workers)
