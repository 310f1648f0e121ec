"""Entropy-regularized optimal transport on structured grids.

The squared-Euclidean ground cost over cell centers makes the Gibbs kernel
K = exp(-C / eps) a Gaussian, which factorizes into one 1D Gaussian per grid
axis. The convolutional kernel mode exploits that factorization and turns the
O(n^2) kernel products of the scaling iterations into O(n * (nx + ny)) work;
the dense mode materializes K and serves as the reference for equivalence
tests.

The axis floor below makes these capped-cost operators: along each axis
K = exp(-min(C, R^2) / eps) with R^2 = -eps ln 1e-150 ~ 345 eps, so the 2D
kernel is exp(-(min(dx^2, R^2) + min(dy^2, R^2)) / eps). The barycenter
therefore solves entropic OT for a squared distance capped at R^2 per axis:
beyond R a move costs the same at any distance, and distant material is
faded rather than transported. R is 1.9 cells at eps / h^2 = 0.01 and 18.6
cells at eps / h^2 = 1.

Numerical conventions (all linear-domain, no log stabilization):
  * the separable axis factors are floored at c = 1e-150 and the dense matrix
    is built as their Kronecker product, so both modes share one tail
    structure and mass can always move even where exp(-d^2/eps) underflows;
  * only entries within sqrt(345 eps) / h cells of the diagonal lie above the
    floor (one cell at eps / h^2 = 0.01, 18 at eps / h^2 = 1), so an axis
    factor is exactly K = B + c 1 1^T with B = K - c a narrow band. A long
    axis is applied as blocks of B, each holding only the rows and columns
    its band touches, plus the floor term c 1 (1^T M): one column sum (or row
    sum) per stacked slice. An axis of fewer than four blocks (under 121
    cells), or one whose band blocks would hold more than 60 % of K, stays
    one block holding K itself with no floor term and computes the plain
    product bit for bit; this keeps desk's 50x100 grid whole;
  * every scaling-vector denominator is floored at 1e-300 in magnitude;
  * both scaling loops stop on an L1 marginal gap, a mass (every measure sums
    to one): the distance loop on the larger of its two gaps, the barycenter
    on the output-side gap s = sum_i ||v_i * (K u_i) - p||_1 of its
    Anderson-accelerated Jacobi sweep (Solomon et al., "Convolutional
    Wasserstein Distances", SIGGRAPH 2015, Alg. 2; Benamou et al., SIAM J.
    Sci. Comput. 2015; Walker & Ni, SIAM J. Numer. Anal. 2011).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scipy.linalg.blas import dasum
from scipy.linalg.lapack import dposv

from .errors import BadWeights, SizeLimit
from .grid_field import GridSpec, ProbabilityField, check_same_grid

_DENOM_FLOOR = 1e-300
_AXIS_FLOOR = 1e-150

DEFAULT_MAX_ITER = 10_000


def _axis_sq_dist(count: int, h: float) -> np.ndarray:
    idx = np.arange(count, dtype=np.float64)
    return ((idx[:, None] - idx[None, :]) * h) ** 2


def _axis_kernel(count: int, h: float, epsilon: float) -> np.ndarray:
    return np.maximum(np.exp(-_axis_sq_dist(count, h) / epsilon), _AXIS_FLOOR)


# Band blocks hold about this many rows. An axis is split only when it spans
# at least four blocks and the blocks hold at most _MAX_BAND_SHARE of K:
# otherwise the per-block calls and the floor pass cost about what the band
# saves. Split into 25-row blocks, a 100-cell axis measured no faster on
# desk's 50x100 grid, nor on the paper grid's x axis with two children bred
# at once, so both stay whole. On the paper grid's 200-cell y axis (2-input
# barycenters, one BLAS thread, serial and two at once), the split sweep was
# faster up to a 0.59 share (eps / h^2 = 8), about even at 0.72-0.80 and
# slower at 0.86; the paper's eps ramp tops out at a 0.34 share
# (eps / h^2 = 1).
_BLOCK_ROWS = 40
_MAX_BAND_SHARE = 0.6


@dataclass(frozen=True, eq=False)
class _AxisFactor:
    """One floored 1D Gaussian factor K, applied along one axis of a (k, ny, nx) stack.

    ``side`` is "left" for K @ M (the middle axis) and "right" for M @ K (the
    last axis). ``blocks`` is empty when the axis stays whole; otherwise it
    holds (lo, hi, c0, c1, block) for consecutive ranges lo:hi of output
    entries, where block is the band B = K - c restricted to the input
    entries c0:c1 that reach them, laid out for ``side``. The product is then
    the blocks' GEMMs plus c times the sums of M along the axis.
    """

    kernel: np.ndarray
    side: str
    blocks: tuple = ()
    ones: np.ndarray | None = None

    @classmethod
    def build(cls, kernel: np.ndarray, side: str) -> "_AxisFactor":
        n = kernel.shape[0]
        width = int(np.count_nonzero(kernel[0] > _AXIS_FLOOR)) - 1
        n_blocks = -(-n // _BLOCK_ROWS)
        edges = [i * n // n_blocks for i in range(n_blocks + 1)]
        spans = [
            (lo, hi, max(0, lo - width), min(n, hi + width))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        entries = sum((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in spans)
        if n_blocks < 4 or entries > _MAX_BAND_SHARE * n * n:
            return cls(kernel, side)
        band = kernel - _AXIS_FLOOR  # exactly zero off the band
        # rows lo:hi of K @ M read rows c0:c1 of M; columns lo:hi of M @ K
        # read columns c0:c1 of M. Contiguous blocks keep the GEMMs fast.
        blocks = tuple(
            (lo, hi, c0, c1, np.ascontiguousarray(
                band[lo:hi, c0:c1] if side == "left" else band[c0:c1, lo:hi]
            ))
            for lo, hi, c0, c1 in spans
        )
        return cls(kernel, side, blocks, np.ones(n))

    def apply(self, mats: np.ndarray, out: np.ndarray) -> None:
        """out = K @ mats (left) or mats @ K (right), over the stack."""
        left = self.side == "left"
        if not self.blocks:
            if left:
                np.matmul(self.kernel, mats, out=out)
            else:
                np.matmul(mats, self.kernel, out=out)
            return
        for lo, hi, c0, c1, b in self.blocks:
            if left:
                np.matmul(b, mats[:, c0:c1, :], out=out[:, lo:hi, :])
            else:
                np.matmul(mats[:, :, c0:c1], b, out=out[:, :, lo:hi])
        # c 1 1^T M is c times the column sums of M, broadcast down the rows
        # (M c 1 1^T: the row sums, across the columns)
        if left:
            floor = np.matmul(self.ones, mats)[:, None, :]
        else:
            floor = np.matmul(mats, self.ones)[:, :, None]
        floor *= _AXIS_FLOOR
        out += floor


def squared_distance_matrix(grid: GridSpec) -> np.ndarray:
    """Full n-by-n squared Euclidean cost over cell centers."""
    xs, ys = grid.cell_centers()
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    return dx * dx + dy * dy


@dataclass(frozen=True, eq=False)
class KernelApplier:
    """Gibbs kernel K = exp(-C / eps) for one grid and regularization strength.

    mode="dense" stores the full symmetric matrix; mode="convolutional"
    applies the two separable axis factors instead. Both expose the plain
    product K @ x and the cost-weighted product (K * C) @ x needed for the
    transport value.

    In the convolutional mode each axis factor is stored once, as built by
    ``_AxisFactor.build``. An axis that does not pay to split stays one block
    holding the floored factor itself, and ``apply`` runs the same GEMMs as
    the plain product Ky @ M @ Kx. A long axis with a narrow band is held as
    blocks of K - c, one per range of output entries, each holding only the
    input entries its band reaches; its product adds the floor back as c
    times one column sum (or row sum) per slice and agrees with the plain
    product to rounding.
    """

    grid: GridSpec
    epsilon: float
    mode: str = "convolutional"
    _kx: np.ndarray = field(init=False, repr=False)
    _ky: np.ndarray = field(init=False, repr=False)
    _x_axis: _AxisFactor = field(init=False, repr=False)
    _y_axis: _AxisFactor = field(init=False, repr=False)
    _dense: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:  # NaN fails too
            raise ValueError("epsilon must be positive and finite")
        if self.mode not in ("dense", "convolutional"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        g = self.grid
        object.__setattr__(self, "_kx", _axis_kernel(g.nx, g.hx, self.epsilon))
        object.__setattr__(self, "_ky", _axis_kernel(g.ny, g.hy, self.epsilon))
        object.__setattr__(self, "_x_axis", _AxisFactor.build(self._kx, "right"))
        object.__setattr__(self, "_y_axis", _AxisFactor.build(self._ky, "left"))
        dense = np.kron(self._ky, self._kx) if self.mode == "dense" else None
        object.__setattr__(self, "_dense", dense)

    def apply(
        self, x: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
    ) -> np.ndarray:
        """K @ x (K is symmetric, so this is also K^T @ x).

        ``x`` is one vector or a (k, n) stack of them, one per row. Row i of a
        stack's result equals ``apply(x[i])`` bit for bit: the convolutional
        mode runs one (k, ny, nx) matmul stack per axis factor or band block,
        and each slice is the GEMM a single vector runs.

        ``out`` receives the result and ``tmp`` the one-axis intermediate
        Ky @ M; both are C-contiguous arrays of x's shape, allocated when not
        given, so a scaling loop can reuse them across sweeps.
        """
        if out is None:
            out = np.empty_like(x)
        assert out.flags.c_contiguous and (tmp is None or tmp.flags.c_contiguous)
        if self._dense is not None:
            for r, o in zip(x.reshape(-1, x.shape[-1]), out.reshape(-1, x.shape[-1])):
                np.matmul(self._dense, r, out=o)
            return out
        shape = (-1, self.grid.ny, self.grid.nx)
        mid = np.empty(x.shape).reshape(shape) if tmp is None else tmp.reshape(shape)
        self._y_axis.apply(x.reshape(shape), mid)
        self._x_axis.apply(mid, out.reshape(shape))
        return out

    def apply_cost(self, x: np.ndarray) -> np.ndarray:
        """(K * C) @ x, with C the squared-distance cost C = cx + cy."""
        g = self.grid
        kcx = _axis_sq_dist(g.nx, g.hx) * self._kx
        kcy = _axis_sq_dist(g.ny, g.hy) * self._ky
        if self._dense is not None:
            return (np.kron(self._ky, kcx) + np.kron(kcy, self._kx)) @ x
        mat = x.reshape(g.ny, g.nx)
        part_x = self._ky @ mat @ kcx
        part_y = kcy @ mat @ self._kx
        return (part_x + part_y).ravel()


@dataclass
class SinkhornReport:
    """Outcome of a scaling run.

    ``value`` is the transport cost for distance calls and the barycenter
    field for barycenter calls. ``restarts`` counts the times a barycenter
    sweep dropped its Anderson history; distance calls never restart.
    """

    value: object
    iterations: int
    final_residual: float
    converged: bool
    restarts: int = 0

    def csv_row(self) -> str:
        return (
            f"{self.iterations},{float(self.final_residual)!r},{int(self.converged)},"
            f"{self.restarts}"
        )


def _l1_gap(scale, product, target, buf) -> float:
    """sum |scale * product - target|, evaluated in ``buf``."""
    np.multiply(scale, product, out=buf)
    buf -= target
    return np.abs(buf, out=buf).sum()


def _aligned_empty(shape) -> np.ndarray:
    """An empty float64 array whose data starts on a 64-byte boundary.

    OpenBLAS's dasum adds in an order that depends on where its input starts
    (the same desk residual summed to different last bits at offsets 0 and
    48 mod 64), so a gap summed in a heap buffer could differ between runs.
    """
    count = int(np.prod(shape))
    raw = np.empty(count + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + count].reshape(shape)


def _check_stopping(tau, max_iter) -> None:
    # NaN fails every comparison, so a NaN tau would never stop the sweep
    if not tau >= 0:
        raise ValueError(f"need tau >= 0, got {tau!r}")
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")


def _scaling_loop(kern, av, bv, tau, max_iter):
    """Alternating scaling until the max marginal residual drops below tau."""
    u = np.ones_like(av)
    v = np.ones_like(bv)
    tmp = np.empty_like(v)
    kv = kern.apply(v, tmp=tmp)
    ku = np.empty_like(u)
    buf = np.empty_like(u)  # floored denominators, then residual terms
    iterations = 0
    residual = np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        np.divide(av, np.maximum(kv, _DENOM_FLOOR, out=buf), out=u)
        kern.apply(u, out=ku, tmp=tmp)
        np.divide(bv, np.maximum(ku, _DENOM_FLOOR, out=buf), out=v)
        kern.apply(v, out=kv, tmp=tmp)
        residual = max(_l1_gap(u, kv, av, buf), _l1_gap(v, ku, bv, buf))
        if residual < tau:
            converged = True
            break
    return u, v, iterations, residual, converged


def sinkhorn_distance(
    a: ProbabilityField,
    b: ProbabilityField,
    epsilon: float,
    tau: float,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "convolutional",
) -> SinkhornReport:
    """Entropy-regularized transport cost between two grid measures.

    Scales u <- a / (K v) and v <- b / (K^T u) until both L1 marginal
    residuals fall below ``tau``, then returns sum_ij u_i K_ij C_ij v_j.
    Non-convergence within ``max_iter`` is reported, not raised.
    """
    check_same_grid(a, b)
    _check_stopping(tau, max_iter)
    kern = KernelApplier(a.grid, epsilon, mode)
    u, v, iterations, residual, converged = _scaling_loop(
        kern, a.masses, b.masses, tau, max_iter
    )
    value = float(u @ kern.apply_cost(v))
    return SinkhornReport(value, iterations, residual, converged)


# Anderson acceleration of the barycenter sweep: the window m; the growth of
# the gap over its best value, and the steps without a new best, that drop
# the history; and the plain steps a restarted run takes before it
# extrapolates again, doubled at each later restart of the run so that a
# small-eps run cannot cycle through overflow without limit. Without the stall
# rule, desk children at eps / h^2 = 0.01 sat on their first sweep's gap for
# 1 400 steps before the growth rule fired. Waiting instead for max |f| <= 0.1
# on every cell, massless ones included, kept the evolve-paper2d children
# plain for ~2 500 of their ~3 600 steps. On restarted frame-pair runs (desk
# at eps / h^2 = 0.01-0.05, the paper grid at 0.01-0.1), 50 plain steps took
# the fewest steps in 5 of 7; 20 or 100 took up to 10 % more, 200 up to 13 %.
_WINDOW = 5
_RESTART_GROWTH = 10.0
_STALL = 100
_PLAIN_RUN = 50
# The normal equations carry a ridge of _RIDGE times their trace, and the
# weights are rounded to multiples of _QUANTUM. Unregularized Anderson steps
# amplified a rounding-level difference (banded against whole axis factors)
# about tenfold every ten steps, to a 3 % different child after 300 steps;
# with both, the two runs agree to 1e-13. The ridge also cut the steps to
# s <= 1e-4 on most desk and paper2d children measured.
_RIDGE = 1e-2
_QUANTUM = 2.0**-20


def _anderson_weights(gram: np.ndarray, newest: int) -> np.ndarray | None:
    """Type-II Anderson weights over the stored iterates, from their residuals' Gram matrix.

    With k = ``newest``, gamma minimizes ||f_k - sum_i gamma_i (f_k - f_i)||
    plus a ridge on gamma, through its normal equations in the differences
    (Walker & Ni 2011), read off ``gram`` without another pass over the
    fields. The step is then sum_i alpha_i G(x_i) with alpha_i = gamma_i and
    alpha_k = 1 - sum gamma. The ridge pulls the step toward the plain one,
    and gamma is rounded to multiples of ``_QUANTUM``. None when the Gram
    matrix is not usable.
    """
    col = gram[newest]
    normal = gram - col
    normal -= col[:, None]
    normal += col[newest]
    diag = normal.reshape(-1)[:: len(gram) + 1]  # a view
    scale = diag.sum()
    if not 0 < scale < np.inf:  # NaN too
        return None
    diag += _RIDGE * scale
    diag[newest] = 1.0  # the row and column of gamma_k are zero
    _, gamma, info = dposv(normal, col[newest] - col, overwrite_b=1)
    if info:
        return None
    gamma *= 1.0 / _QUANTUM  # a power of two: the same bits as dividing by _QUANTUM
    np.rint(gamma, out=gamma)
    gamma *= _QUANTUM
    gamma[newest] = 1.0 - gamma.sum()
    return gamma


def sinkhorn_barycenter(
    inputs: list[ProbabilityField],
    weights: list[float],
    epsilon: float,
    tau: float,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "convolutional",
) -> tuple[ProbabilityField, SinkhornReport]:
    """Weighted entropic barycenter of two or more grid measures.

    The convolutional Sinkhorn scheme of Solomon et al. ("Convolutional
    Wasserstein Distances", SIGGRAPH 2015, Alg. 2): Jacobi iterative Bregman
    projections (Benamou et al., SIAM J. Sci. Comput. 2015). One sweep over
    the (k, n) stack of inputs a_i with weights w_i maps x = log v to
        u_i    = a_i / (K v_i)
        t_i    = K^T u_i
        log p  = sum_j w_j log t_j
        G(x)_i = log p - log t_i,
    two stacked kernel products. Plain iteration sets x <- G(x). Here each
    step is type-II Anderson acceleration over the last ``_WINDOW`` + 1
    iterates (Walker & Ni, SIAM J. Numer. Anal. 2011): x <- sum_i alpha_i
    G(x_i), with alpha minimizing the combined residual f = G(x) - x, each
    f_i scaled cellwise by its own p. Unscaled, the cells that hold no mass
    dominate ||f|| and stalled the step: an evolve-paper2d child ran its
    10 000-step cap at s = 1.8e-4, and stops after 4 468 steps scaled.

    Every step measures the output-side marginal gap at its iterate,
        s = sum_i ||v_i * t_i - p||_1 = sum_ij p_j |expm1(-f_ij)|,
    an L1 mass that is exact at any x, extrapolated or not. The run stops
    once s <= ``tau``. A non-finite s, one above ``_RESTART_GROWTH`` times
    the best so far, or ``_STALL`` steps without a new best drop the history
    and restart from the best iterate. The restarted run takes
    ``_PLAIN_RUN`` plain steps, twice as many after each later restart, and
    then extrapolates again from a fresh history; the report counts the
    restarts. It carries the best iterate's s, and the barycenter returned
    is that iterate's p renormalized to unit mass (the raw product is not
    guaranteed to sum to one). A run that hits ``max_iter`` reports
    ``converged = False``.
    """
    if len(inputs) < 2:
        raise ValueError("need at least two input fields")
    _check_stopping(tau, max_iter)
    grid = check_same_grid(*inputs)
    lam = np.asarray(weights, dtype=np.float64)
    if lam.size != len(inputs):
        raise BadWeights(f"{lam.size} weights for {len(inputs)} inputs")
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-9:
        raise BadWeights("weights must be nonnegative and sum to 1 within 1e-9")
    kern = KernelApplier(grid, epsilon, mode)

    a = np.stack([f.masses for f in inputs])
    size = a.size
    # rings of the last _WINDOW + 1 images G(x_i) and residuals
    # p_i * (x_i - G(x_i)) (the sign of f does not change the weights), and
    # the residuals' Gram matrix, one row and column rewritten per step
    images = np.empty((_WINDOW + 1, size))
    resid = np.empty_like(images)
    gram = np.empty((_WINDOW + 1, _WINDOW + 1))
    # every kernel product of the run lands in these buffers
    v = np.empty_like(a)
    u = np.empty_like(a)
    t = np.empty_like(a)
    work = _aligned_empty(a.shape)  # every gap is its dasum
    step = np.zeros_like(a)  # the extrapolated x; the first x is 0, v = 1
    x = step
    log_p = np.empty(grid.n)
    p = np.empty(grid.n)
    # the best iterate's image stays in its ring slot until the slot is
    # reused (best_slot >= 0) and is saved to best_image then
    best_image = np.zeros_like(a)  # a restart before any finite gap starts over
    best_slot = -1
    best_p = np.full(grid.n, np.nan)
    best = np.inf
    best_at = 0

    filled = 0  # iterates stored since the history was last dropped
    restarts = 0
    plain = 0  # plain steps left before extrapolation resumes
    iterations = 0
    converged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(1, max_iter + 1):
            slot = filled % (_WINDOW + 1)
            if slot == best_slot:
                np.copyto(best_image, images[slot].reshape(a.shape))
                best_slot = -1
            g = images[slot].reshape(a.shape)
            np.exp(x, out=v)
            kern.apply(v, out=u, tmp=work)
            np.divide(a, np.maximum(u, _DENOM_FLOOR, out=u), out=u)
            kern.apply(u, out=t, tmp=work)
            np.maximum(t, _DENOM_FLOOR, out=t)
            np.matmul(lam, np.log(t, out=work), out=log_p)
            np.subtract(log_p, work, out=g)
            np.exp(log_p, out=p)
            np.multiply(v, t, out=work)
            work -= p
            gap = dasum(work.reshape(size))

            step_p = p
            if gap < best:
                best, best_slot, best_at = gap, slot, iterations
                best_p, p = p, best_p  # the next step writes the other buffer
                if gap <= tau:
                    converged = True
                    break
            elif not plain and (
                not gap <= _RESTART_GROWTH * best  # NaN too
                or iterations - best_at >= _STALL
            ):
                if best_slot >= 0:
                    np.copyto(best_image, images[best_slot].reshape(a.shape))
                x, best_slot, filled = best_image, -1, 0
                plain = _PLAIN_RUN << restarts
                restarts += 1
                continue

            if plain:
                plain -= 1
                if plain:
                    # a plain step; the next one writes the following slot
                    x = g
                    filled += 1
                else:
                    # extrapolate again, from a history that starts here
                    x, filled = step, 0
                    np.copyto(x, g)
                continue
            filled += 1
            count = min(filled, _WINDOW + 1)
            e = resid[slot].reshape(a.shape)
            np.subtract(x, g, out=e)
            e *= step_p  # cells without mass do not steer the weights
            row = np.matmul(resid[:count], resid[slot])
            gram[slot, :count] = row
            gram[:count, slot] = row
            alpha = _anderson_weights(gram[:count, :count], slot) if count > 1 else None
            if alpha is None:
                x = g
            else:
                x = step
                np.matmul(alpha, images[:count], out=x.reshape(size))

    total = best_p.sum()
    if not np.isfinite(total) or total <= 0:
        bary = np.full(grid.n, 1.0 / grid.n)
    else:
        bary = best_p / total
        s = bary.sum()
        if abs(s - 1.0) > 1e-13:
            bary = bary / s
    out = ProbabilityField(grid, bary)
    return out, SinkhornReport(out, iterations, best, converged, restarts)


def exact_ot_lp(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Unregularized transport optimum via linear programming (test oracle).

    Solves min <P, cost> subject to P 1 = a, P^T 1 = b, P >= 0 with HiGHS.
    Capped at 256 support points per marginal; O(n^3)-ish is fine there.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    cost = np.asarray(cost, dtype=np.float64)
    na, nb = a.size, b.size
    if max(na, nb) > 256:
        raise SizeLimit(f"instance has {max(na, nb)} points, oracle cap is 256")
    if cost.shape != (na, nb):
        raise ValueError(f"cost shape {cost.shape} != ({na}, {nb})")
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise ValueError("marginals must each sum to 1")
    a = a / a.sum()
    b = b / b.sum()

    nvar = na * nb
    rows = []
    cols = []
    for i in range(na):
        rows.extend([i] * nb)
        cols.extend(range(i * nb, (i + 1) * nb))
    for j in range(nb - 1):  # last column constraint is redundant
        rows.extend([na + j] * na)
        cols.extend(range(j, nvar, nb))
    data = np.ones(len(rows))
    a_eq = csr_matrix((data, (rows, cols)), shape=(na + nb - 1, nvar))
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    plan = np.maximum(res.x.reshape(na, nb), 0.0)
    return float(res.fun), plan
