"""Plane-stress finite elements on the structured grid.

Bilinear quadrilaterals, one per grid cell, with SIMP-interpolated stiffness
E(d) = e_min + d^penal * (e0 - e_min). Nodes live on the (nx+1)-by-(ny+1)
lattice; node (i, j) has id j*(nx+1)+i and dofs (2*id, 2*id+1) for (ux, uy).
Stresses are recovered at element centroids from the solid-material
constitutive law and relaxed by d^q_rel, which keeps the aggregated stress
objective differentiable down to void.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack

from .errors import EmptySolidSet, GridMismatch, SingularSystem
from .grid_field import DensityField, GridSpec

_GAUSS = 1.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class ElasticModel:
    grid: GridSpec
    e0: float = 1.0
    e_min: float = 1e-6
    nu: float = 0.3
    penal: float = 3.0
    thickness: float = 1.0
    q_rel: float = 0.5

    def __post_init__(self):
        if not (0 < self.e_min < self.e0):
            raise ValueError("need 0 < e_min < e0")
        if not (0 < self.nu < 0.5):
            raise ValueError("Poisson ratio must lie in (0, 0.5)")
        if self.penal < 1:
            raise ValueError("SIMP exponent must be >= 1")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")

    def simp(self, density: np.ndarray) -> np.ndarray:
        return self.e_min + density**self.penal * (self.e0 - self.e_min)


@dataclass(frozen=True, eq=False)
class BoundaryConditions:
    """Realized constraints and loads for one grid.

    ``fixed_dofs`` holds pins and clamps, ``roller_dofs`` the single-component
    constraints coming from symmetry edges; both are prescribed to zero.
    """

    grid: GridSpec
    fixed_dofs: np.ndarray
    loads: np.ndarray
    roller_dofs: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        ndof = 2 * (self.grid.nx + 1) * (self.grid.ny + 1)
        fixed = np.unique(np.asarray(self.fixed_dofs, dtype=np.int64))
        rollers = np.unique(np.asarray(self.roller_dofs, dtype=np.int64))
        loads = np.asarray(self.loads, dtype=np.float64).ravel()
        if loads.size != ndof:
            raise ValueError(f"load vector has {loads.size} entries, expected {ndof}")
        if fixed.size + rollers.size == 0:
            raise ValueError("at least one constrained dof is required")
        object.__setattr__(self, "fixed_dofs", fixed)
        object.__setattr__(self, "roller_dofs", rollers)
        object.__setattr__(self, "loads", loads)

    @property
    def all_constrained(self) -> np.ndarray:
        return np.union1d(self.fixed_dofs, self.roller_dofs)


@dataclass(frozen=True, eq=False)
class StressField:
    """Von Mises stress at element centroids."""

    grid: GridSpec
    sigma_vm: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.sigma_vm, dtype=np.float64).ravel()
        if arr.size != self.grid.n:
            raise ValueError("stress vector length mismatch")
        if np.any(arr < 0):
            raise ValueError("von Mises stress cannot be negative")
        object.__setattr__(self, "sigma_vm", arr)


def _d_matrix(nu: float) -> np.ndarray:
    return (1.0 / (1.0 - nu * nu)) * np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
    )


def _b_matrix(xi: float, eta: float, hx: float, hy: float) -> np.ndarray:
    # derivatives of the four bilinear shape functions wrt physical x, y
    dn_dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    dn_deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    dn_dx = dn_dxi * 2.0 / hx
    dn_dy = dn_deta * 2.0 / hy
    b = np.zeros((3, 8))
    b[0, 0::2] = dn_dx
    b[1, 1::2] = dn_dy
    b[2, 0::2] = dn_dy
    b[2, 1::2] = dn_dx
    return b


def _element_dofs(nx: int, ny: int) -> np.ndarray:
    """(nx*ny, 8) dofs of each element, counter-clockwise from its lower-left node."""
    n1 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)[None, :]).ravel()
    n2 = n1 + 1
    n3 = n2 + (nx + 1)
    n4 = n1 + (nx + 1)
    return np.column_stack(
        [2 * n1, 2 * n1 + 1, 2 * n2, 2 * n2 + 1, 2 * n3, 2 * n3 + 1, 2 * n4, 2 * n4 + 1]
    )


class _Discretization:
    """Per-grid element matrices and assembly indexing, computed once."""

    def __init__(self, model: ElasticModel):
        g = model.grid
        self.model = model
        d_unit = _d_matrix(model.nu)
        ke = np.zeros((8, 8))
        det = g.hx * g.hy / 4.0
        for xi in (-_GAUSS, _GAUSS):
            for eta in (-_GAUSS, _GAUSS):
                b = _b_matrix(xi, eta, g.hx, g.hy)
                ke += b.T @ d_unit @ b * det
        self.ke_unit = ke * model.thickness
        self.b_centroid = _b_matrix(0.0, 0.0, g.hx, g.hy)
        self.d_solid = d_unit * model.e0

        self.edof = _element_dofs(g.nx, g.ny)
        self.ndof = 2 * (g.nx + 1) * (g.ny + 1)


@functools.lru_cache(maxsize=32)
def _discretization(model: ElasticModel) -> _Discretization:
    return _Discretization(model)


def _nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Node ids of the (nx+1)-by-(ny+1) lattice in geometric nested-dissection order.

    A box of nodes is split across its longer side at the middle node line;
    both halves are ordered recursively and the separating line goes last.
    Q4 elements couple only neighbouring node lines, so eliminating one half
    never fills into the other (George, SIAM J. Numer. Anal. 10, 1973).
    """
    nnx = nx + 1
    parts = []

    def order(i0: int, i1: int, j0: int, j1: int):  # half-open node ranges
        w, h = i1 - i0, j1 - j0
        if w <= 0 or h <= 0:
            return
        if max(w, h) <= 2:
            parts.append((np.arange(j0, j1)[:, None] * nnx + np.arange(i0, i1)).ravel())
        elif w >= h:
            m = i0 + w // 2
            order(i0, m, j0, j1)
            order(m + 1, i1, j0, j1)
            parts.append(np.arange(j0, j1) * nnx + m)
        else:
            m = j0 + h // 2
            order(i0, i1, j0, m)
            order(i0, i1, m + 1, j1)
            parts.append(m * nnx + np.arange(i0, i1))

    order(0, nnx, 0, ny + 1)
    return np.concatenate(parts)


def _short_axis_first(nx: int, ny: int) -> np.ndarray:
    """Node ids of the (nx+1)-by-(ny+1) lattice, numbered along the shorter axis first.

    Neighbouring node lines then differ by min(nx, ny) + 1 in number, so the
    free-dof matrix is banded with half-bandwidth at most 2 min(nx, ny) + 5.
    """
    nnx = nx + 1
    if nx <= ny:
        return np.arange(nnx * (ny + 1))
    return (np.arange(ny + 1)[None, :] * nnx + np.arange(nnx)[:, None]).ravel()


# The banded Cholesky costs ~n b^2 flops for n free dofs of half-bandwidth b.
# On the cracked plate, with two pool workers factoring at once, it factored
# 1.4-3.3x faster than SuperLU under the nested-dissection order up to
# 180x360 (1.7e10). Its band also stores more than SuperLU's factor: 382
# against ~243 MB at 180x360, 523 against ~308 MB at 200x400 (2.6e10). The
# paper's 200x400 HF grid factors by SuperLU: two of its bands at once would
# take over 1 GB. ROADMAP item 3 holds the measurement.
_MAX_BAND_WORK = 2e10


class _ReducedSystem:
    """Free-dof stiffness pattern in factor order, fixed per grid and constrained set.

    The free dofs are numbered once, in the order the factor needs: along the
    shorter grid axis first when the band's Cholesky work n b^2 is at most
    ``_MAX_BAND_WORK`` (``band`` is then the half-bandwidth b), otherwise in
    the nested-dissection order that SuperLU factors without reordering
    (``band`` is None). ``free[q]`` is the global dof of unknown q. ``slot``
    sends each kept element-matrix entry to its place in the CSC arrays
    ``indices``/``indptr``, so ``assemble`` is one bincount; on the banded
    path ``band_pos`` sends the lower-triangle CSC entries ``band_src`` to
    their places in LAPACK lower band storage.
    """

    def __init__(self, nx: int, ny: int, constrained: np.ndarray):
        edof = _element_dofs(nx, ny)
        self.free, local = _numbered(_short_axis_first(nx, ny), constrained, edof)
        n = self.n = self.free.size
        # every kept entry couples two dofs of one element
        lowest = np.where(local >= 0, local, n).min(axis=1)
        b = int(np.max(local.max(axis=1) - lowest, initial=0))
        self.band = b if n * b * b <= _MAX_BAND_WORK else None
        if self.band is None:
            self.free, local = _numbered(_nested_dissection(nx, ny), constrained, edof)

        rows = np.repeat(local, 8, axis=1).ravel()
        cols = np.tile(local, (1, 8)).ravel()
        self.keep = (rows >= 0) & (cols >= 0)
        # column-major keys: sorted unique keys are the CSC entries in order
        keys = cols[self.keep].astype(np.int64) * n + rows[self.keep]
        keys, slot = np.unique(keys, return_inverse=True)
        del rows, cols, local
        self.slot = slot.astype(np.int32)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        shared = [self.free, self.keep, self.slot, self.indices, self.indptr]
        if self.band is not None:
            col = keys // n
            self.band_src = np.flatnonzero(self.indices >= col).astype(np.int32)
            # entry (i, j), i >= j, sits at row i - j of column j of the
            # (b + 1, n) Fortran-ordered band
            src = self.band_src
            self.band_pos = (col[src] * (b + 1) + self.indices[src] - col[src]).astype(np.int32)
            shared += [self.band_src, self.band_pos]
        # cached and shared by every later solve (the index arrays by every
        # assembled matrix), so nothing may change them in place
        for arr in shared:
            arr.flags.writeable = False

    def assemble(self, disc: _Discretization, density: np.ndarray) -> sp.csc_matrix:
        e_mod = disc.model.simp(density)
        vals = np.multiply.outer(e_mod, disc.ke_unit.ravel()).ravel()[self.keep]
        data = np.bincount(self.slot, weights=vals, minlength=self.indices.size)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def _numbered(nodes: np.ndarray, constrained: np.ndarray, edof: np.ndarray):
    """Free dofs in the order of ``nodes`` and each element's dofs as unknowns (-1 if fixed)."""
    order = np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()
    free = order[~np.isin(order, constrained)]
    reduced = np.full(order.size, -1, dtype=np.int32)
    reduced[free] = np.arange(free.size, dtype=np.int32)
    return free, reduced[edof]


@functools.cache
def _pin_scipy_blas_to_one_thread() -> None:
    """Hold the OpenBLAS behind scipy.linalg at one thread for the rest of the process.

    pbtrf's BLAS-3 updates round differently when OpenBLAS splits them over
    threads, so without this a run's results would depend on
    OPENBLAS_NUM_THREADS. numpy links a separate OpenBLAS, whose count this
    leaves alone. OpenBLAS built on pthreads applies the "local" count to
    every thread. The Cython LAPACK module links scipy's library, and a
    symbol lookup on it searches the libraries it links; other BLAS builds
    lack the symbol.
    """
    setter = getattr(ctypes.CDLL(cython_lapack.__file__), "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter(1)


_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _lapack(name: str, *argtypes):
    """LAPACK routine ``name`` from scipy's Cython table as a GIL-releasing ctypes call.

    scipy.linalg's f2py wrappers hold the GIL for the length of a LAPACK call,
    which stalls every other pool thread; a CFUNCTYPE call releases it.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    capsule_name = _CAPSULE_NAME(capsule)
    return ctypes.CFUNCTYPE(None, *argtypes)(_CAPSULE_POINTER(capsule, capsule_name))


_INT = ctypes.POINTER(ctypes.c_int)
# dpbtrf(uplo, n, kd, ab, ldab, info)
_DPBTRF = _lapack("dpbtrf", ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, _INT)
# dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info)
_DPBTRS = _lapack(
    "dpbtrs", ctypes.c_char_p, _INT, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT
)


def _check_info(info: ctypes.c_int, routine: str) -> None:
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}-th argument of {routine}")


class _BandCholesky:
    """LAPACK banded Cholesky (pbtrf) of a ``_ReducedSystem`` matrix with ``band`` set.

    The factor and each solve release the GIL, so pool threads factor side by
    side and the other workers' Python code runs meanwhile.
    """

    def __init__(self, system: _ReducedSystem, k_ff: sp.csc_matrix):
        n, b = system.n, system.band
        band = np.zeros((n, b + 1))
        band.ravel()[system.band_pos] = k_ff.data[system.band_src]
        # the C-ordered (n, b + 1) array is the Fortran-ordered (b + 1, n)
        # lower band pbtrf works in, so the factor overwrites it in place
        self.n, self.b, self.band = ctypes.c_int(n), ctypes.c_int(b), band
        self.ldab, self.ldb = ctypes.c_int(b + 1), ctypes.c_int(max(n, 1))
        info = ctypes.c_int()
        _pin_scipy_blas_to_one_thread()
        _DPBTRF(b"L", self.n, self.b, band.ctypes.data, self.ldab, info)
        _check_info(info, "pbtrf")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.array(rhs, dtype=np.float64)  # pbtrs overwrites its right-hand side
        if x.shape != (self.n.value,):
            raise ValueError(f"right-hand side of shape {x.shape} for {self.n.value} unknowns")
        info = ctypes.c_int()
        _DPBTRS(b"L", self.n, self.b, ctypes.c_int(1), self.band.ctypes.data, self.ldab,
                x.ctypes.data, self.ldb, info)
        _check_info(info, "pbtrs")
        return x


def _factorize(system: _ReducedSystem, k_ff: sp.csc_matrix):
    """Cholesky or LU factor of ``k_ff``, whichever ``system`` was numbered for.

    Raises RuntimeError (SuperLU) or LinAlgError (banded) when the factor fails.
    """
    if system.band is not None:
        return _BandCholesky(system, k_ff)
    # K_ff is SPD, so diagonal pivots are safe and keep the fill of the
    # nested-dissection order; SuperLU's default threshold of 1 pivots off
    # the diagonal on rough designs and stores up to 2.7x the entries. A
    # singular matrix still fails the factor.
    return spla.splu(
        k_ff, permc_spec="NATURAL", options={"SymmetricMode": True, "DiagPivotThresh": 0.0}
    )


@functools.lru_cache(maxsize=8)
def _reduced_system_cached(nx: int, ny: int, constrained: bytes) -> _ReducedSystem:
    return _ReducedSystem(nx, ny, np.frombuffer(constrained, dtype=np.int64))


_REDUCED_LOCK = threading.Lock()


def _reduced_system(grid: GridSpec, constrained: np.ndarray) -> _ReducedSystem:
    # the lock keeps concurrent pool threads from each building the same
    # entry, whose transient is as large as one assembly
    with _REDUCED_LOCK:
        return _reduced_system_cached(
            grid.nx, grid.ny, np.asarray(constrained, dtype=np.int64).tobytes()
        )


# Acceptance bound on the componentwise backward error
# omega = max_i |K u - f|_i / (|K| |u| + |f|)_i (Oettli & Prager 1964; Higham,
# Accuracy and Stability of Numerical Algorithms, 7.2), which does not depend
# on the order in which the residual is summed. A row of K holds at most 18
# entries (nine nodes, two dofs each), so evaluating the residual in fp64 can
# alone read up to gamma_19 ~ 19 u ~ 10 eps; a backward-stable solve after
# one refinement step reads 1-2 eps. 32 eps leaves a factor of three over
# the evaluation bound; a solution with one entry off by 1e-6 ||u||_inf
# reads ~3e-4 on a thin design.
BACKWARD_ERROR_BOUND = 32 * np.finfo(np.float64).eps


class _Solved:
    """Factorized reduced system plus the primal solution."""

    def __init__(self, model: ElasticModel, density: DensityField, bc: BoundaryConditions):
        if density.grid != model.grid or bc.grid != model.grid:
            raise GridMismatch("model, density and boundary conditions must share a grid")
        disc = _discretization(model)
        system = _reduced_system(model.grid, bc.all_constrained)
        if system.n == disc.ndof:
            raise SingularSystem("no constrained dofs; rigid modes present", "factor")
        k_ff = system.assemble(disc, density.values)
        f_f = bc.loads[system.free]
        self.system = system
        try:
            self.factor = _factorize(system, k_ff)
            u_f = self.factor.solve(f_f)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SingularSystem(str(exc), "factor") from exc
        if not np.all(np.isfinite(u_f)):
            raise SingularSystem("solution contains non-finite entries", "non_finite")
        f_norm = np.linalg.norm(f_f)
        if f_norm > 0:
            # one refinement step keeps the residual near machine precision,
            # which adjoint-vs-finite-difference checks rely on
            u_f = u_f + self.factor.solve(f_f - k_ff @ u_f)
            r = np.abs(k_ff @ u_f - f_f)
            np.abs(k_ff.data, out=k_ff.data)  # k_ff is not used again: |K| in place
            scale = k_ff @ np.abs(u_f) + np.abs(f_f)
            # written as a product so that a zero row reads 0/0 = 0 and a NaN fails
            if not np.all(r <= BACKWARD_ERROR_BOUND * scale):
                with np.errstate(divide="ignore", invalid="ignore"):
                    omega = np.max(r / scale)
                raise SingularSystem(
                    f"componentwise backward error {omega:.3e} exceeds "
                    f"{BACKWARD_ERROR_BOUND:.1e} (relative residual "
                    f"{np.linalg.norm(r) / f_norm:.3e})",
                    "backward_error",
                )
        u = np.zeros(disc.ndof)
        u[system.free] = u_f
        self.disc = disc
        self.u = u

    def adjoint(self, rhs: np.ndarray) -> np.ndarray:
        free = self.system.free
        psi = np.zeros(self.disc.ndof)
        psi[free] = self.factor.solve(rhs[free])
        return psi


def solve_displacement(
    model: ElasticModel, density: DensityField, bc: BoundaryConditions
) -> np.ndarray:
    """Nodal displacement vector of K(density) u = f, accepted by its backward error."""
    return _Solved(model, density, bc).u


def _solid_vm(model: ElasticModel, disc: _Discretization, u: np.ndarray):
    """Centroid stress components and von Mises value at solid modulus."""
    u_e = u[disc.edof]
    sig = u_e @ (disc.d_solid @ disc.b_centroid).T
    sx, sy, txy = sig[:, 0], sig[:, 1], sig[:, 2]
    vm = np.sqrt(np.maximum(sx * sx + sy * sy - sx * sy + 3.0 * txy * txy, 0.0))
    return sig, vm


def von_mises(model: ElasticModel, density: DensityField, u: np.ndarray) -> StressField:
    """Relaxed von Mises stress d^q_rel * vm(solid constitutive stress)."""
    disc = _discretization(model)
    _, vm = _solid_vm(model, disc, u)
    relaxed = density.values**model.q_rel * vm
    return StressField(model.grid, relaxed)


def pnorm_stress(sf: StressField, p_norm: float) -> float:
    """(sum_e sigma_e^P)^(1/P), computed in scaled form for stability."""
    if p_norm < 1:
        raise ValueError("p_norm must be >= 1")
    peak = float(sf.sigma_vm.max())
    if peak == 0.0:
        return 0.0
    scaled = sf.sigma_vm / peak
    return peak * float(np.sum(scaled**p_norm) ** (1.0 / p_norm))


def max_stress(sf: StressField, density: DensityField, threshold: float = 0.5) -> float:
    """Maximum centroid stress over elements with density >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    if sf.grid != density.grid:
        raise GridMismatch("stress and density grids differ")
    mask = density.values >= threshold
    if not np.any(mask):
        raise EmptySolidSet("no element reaches the solid threshold")
    return float(sf.sigma_vm[mask].max())


def pnorm_objective_grad(
    model: ElasticModel,
    density: DensityField,
    bc: BoundaryConditions,
    p_norm: float,
) -> tuple[float, np.ndarray]:
    """Aggregated stress value and its adjoint gradient wrt element density.

    With sigma_e = d^q * s_e(u) and J = (sum sigma^P)^(1/P), the density
    derivative splits into the explicit relaxation term and the implicit
    stiffness term resolved by one adjoint solve:

        dJ/dd_e = J^(1-P) * q * d^(qP-1) * s_e^P  -  psi_e' (dK_e/dd_e) u_e,
        K psi = dJ/du.

    The combined exponent qP-1 is evaluated directly so void elements
    (d = 0) contribute zero instead of 0 * inf.
    """
    if model.q_rel * p_norm <= 1.0:
        raise ValueError("need q_rel * p_norm > 1 for a bounded void gradient")
    solved = _Solved(model, density, bc)
    disc = solved.disc
    d = density.values
    sig, s_vm = _solid_vm(model, disc, solved.u)
    sigma = d**model.q_rel * s_vm
    j_val = pnorm_stress(StressField(model.grid, sigma), p_norm)
    if j_val == 0.0:
        return 0.0, np.zeros(model.grid.n)

    # scale by the peak so sigma^P stays in range for large P
    scale = sigma.max()
    j_scaled = j_val / scale
    common = j_scaled ** (1.0 - p_norm)

    explicit = (
        scale * common * model.q_rel * d ** (model.q_rel * p_norm - 1.0)
        * (s_vm / scale) ** p_norm
    )

    # dJ/du assembled from per-element d(vm)/d(stress components)
    with np.errstate(invalid="ignore", divide="ignore"):
        dvm = np.column_stack(
            [
                (2.0 * sig[:, 0] - sig[:, 1]),
                (2.0 * sig[:, 1] - sig[:, 0]),
                6.0 * sig[:, 2],
            ]
        ) / (2.0 * s_vm[:, None])
    dvm[s_vm <= 0.0] = 0.0
    weight = common * d ** (model.q_rel * p_norm) * (s_vm / scale) ** (p_norm - 1.0)
    contrib = (weight[:, None] * dvm) @ (disc.d_solid @ disc.b_centroid)
    rhs = np.zeros(disc.ndof)
    np.add.at(rhs, disc.edof.ravel(), contrib.ravel())

    psi = solved.adjoint(rhs)
    u_e = solved.u[disc.edof]
    psi_e = psi[disc.edof]
    ku = u_e @ disc.ke_unit
    dke = model.penal * d ** (model.penal - 1.0) * (model.e0 - model.e_min)
    implicit = -dke * np.einsum("ij,ij->i", psi_e, ku)
    return j_val, explicit + implicit
