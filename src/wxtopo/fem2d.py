"""Plane-stress finite elements on the structured grid.

Bilinear quadrilaterals, one per grid cell, with SIMP-interpolated stiffness
E(d) = e_min + d^penal * (e0 - e_min). Nodes live on the (nx+1)-by-(ny+1)
lattice; node (i, j) has id j*(nx+1)+i and dofs (2*id, 2*id+1) for (ux, uy).
Stresses are recovered at element centroids from the solid-material
constitutive law and relaxed by d^q_rel, which keeps the aggregated stress
objective differentiable down to void.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .errors import EmptySolidSet, GridMismatch, SingularSystem
from .grid_field import DensityField, GridSpec

_GAUSS = 1.0 / np.sqrt(3.0)
# Leaf boxes of the dissection tree hold at most this many nodes a side.
_LEAF_NODES = 8


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


def _nested_dissection(nx: int, ny: int):
    """Node ids of the (nx+1)-by-(ny+1) lattice in geometric nested-dissection order, and its tree.

    A box of nodes is split across its longer side at the middle node line;
    both halves are ordered recursively and the separating line goes last.
    Q4 elements couple only neighbouring node lines, so eliminating one half
    never fills into the other (George, SIAM J. Numer. Anal. 10, 1973). A box
    at most ``_LEAF_NODES`` a side is a leaf, ordered row by row.

    Besides the order, returns the tree as its fronts in post-order, one per
    separating line or leaf: ``(size, box, children)``. The front's nodes are
    the next ``size`` of the order, ``box`` is the half-open node box
    (i0, i1, j0, j1) that the front completes (the leaf itself, or the box the
    line splits), and ``children`` index the fronts of that box's halves.
    """
    nnx = nx + 1
    parts, fronts = [], []

    def order(i0: int, i1: int, j0: int, j1: int):  # half-open node ranges
        w, h = i1 - i0, j1 - j0
        if w <= 0 or h <= 0:
            return None
        if max(w, h) <= _LEAF_NODES:
            nodes, halves = (np.arange(j0, j1)[:, None] * nnx + np.arange(i0, i1)).ravel(), ()
        elif w >= h:
            m = i0 + w // 2
            halves = (order(i0, m, j0, j1), order(m + 1, i1, j0, j1))
            nodes = np.arange(j0, j1) * nnx + m
        else:
            m = j0 + h // 2
            halves = (order(i0, i1, j0, m), order(i0, i1, m + 1, j1))
            nodes = m * nnx + np.arange(i0, i1)
        parts.append(nodes)
        fronts.append((nodes.size, (i0, i1, j0, j1), [f for f in halves if f is not None]))
        return len(fronts) - 1

    order(0, nnx, 0, ny + 1)
    return np.concatenate(parts), fronts


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
# Two pool processes at once, each factoring a different rough design of the
# cracked plate (40 % random binary, or grey: uniform in 0.05-1) and solving
# twice, band against multifrontal, medians of 48 alternating rounds (2-vCPU
# Xeon, one BLAS thread); the last column counts the rounds the multifrontal
# won:
#
#   grid     n b^2    binary (ms)        grey (ms)         multifrontal won
#   80x160   7.1e8    53 against  84     77 against 115    0 and  0 of 48
#   90x180   1.1e9    76 against 110    113 against 141    0 and  1
#   95x190   1.4e9    97 against 105    126 against 138   11 and 15
#   100x200  1.7e9   132 against 135    158 against 158   24 and 31
#   110x220  2.5e9   180 against 165    152 against 132   38 and 40
#
# Over 12 rounds per grid the band won 119 of 120 from 50x100 to 90x180 (39
# against 65 ms on binary 50x100) and lost 11-12 of 12 from 120x240 on (409
# against 320 ms on binary 140x280). The first grid where the multifrontal
# is no slower, 100x200, takes it; there it stores 5.07M entries against the
# band's 8.34M (41 against 67 MB).
_MAX_BAND_WORK = 1.6e9

# Elements per chunk of the scatter build, which bounds its temporaries.
_BUILD_CHUNK = 4096


class _ReducedSystem:
    """Free-dof stiffness pattern in factor order, per grid, element matrix and constrained set.

    The free dofs are numbered once, in the order the factor needs: along the
    shorter grid axis first when the band's Cholesky work n b^2 is at most
    ``_MAX_BAND_WORK`` (``band`` is then the half-bandwidth b and ``fronts``
    None), otherwise in nested-dissection order, whose tree ``fronts`` holds
    (``band`` is None). ``free[q]`` is the global dof of unknown q. Entry
    (q, e) of ``scatter`` is the unit-modulus element-matrix entry of element
    e that lands on entry q of the CSC arrays ``indices``/``indptr``, so
    ``assemble`` is one product ``scatter @ E(density)``. ``scatter`` is
    stored by element columns, so that product adds each entry's terms in
    ascending element order, bit for bit as an element-order bincount would.
    On the banded path ``band_pos`` sends the lower-triangle CSC entries
    ``band_src`` to their places in LAPACK lower band storage.
    """

    def __init__(self, nx: int, ny: int, ke_unit: np.ndarray, constrained: np.ndarray):
        edof = _element_dofs(nx, ny)
        self.free, unknown = _numbered(_short_axis_first(nx, ny), constrained)
        n = self.n = self.free.size
        local = unknown[edof]
        # every kept entry couples two dofs of one element
        lowest = np.where(local >= 0, local, n).min(axis=1)
        b = int(np.max(local.max(axis=1) - lowest, initial=0))
        self.band = b if n * b * b <= _MAX_BAND_WORK else None
        if self.band is None:
            nodes, tree = _nested_dissection(nx, ny)
            self.free, unknown = _numbered(nodes, constrained)
            local = unknown[edof]
        self.indices, self.indptr, rank = _pattern(nx, ny, self.free, unknown)

        # column e holds element e's kept unit-modulus entries at their CSC
        # entries, so the product adds each entry's terms in element order;
        # entry (a, b) lands at the rank of dof a's node and component among
        # the neighbours of dof b's node, in column b. Built in element
        # chunks, so no temporary spans every element entry.
        kept = (local >= 0).sum(axis=1) ** 2
        starts = np.concatenate([[0], np.cumsum(kept)]).astype(np.int32)
        slot = np.empty(starts[-1], dtype=np.int32)
        data = np.empty(starts[-1])
        for c in range(0, nx * ny, _BUILD_CHUNK):
            cols = local[c:c + _BUILD_CHUNK]
            keep = (cols[:, :, None] >= 0) & (cols[:, None, :] >= 0)  # (element, a, b)
            places = self.indptr[cols][:, None, :] + rank[edof[c:c + _BUILD_CHUNK, None, :] // 2,
                                                          _NEIGHBOUR_SLOT]
            span = slice(starts[c], starts[c + cols.shape[0]])
            slot[span] = places[keep]
            data[span] = np.broadcast_to(ke_unit.reshape(8, 8), keep.shape)[keep]
        self.scatter = sp.csc_matrix((data, slot, starts), shape=(self.indices.size, nx * ny))
        del edof, local, rank, slot, data
        shared = [self.free, self.indices, self.indptr,
                  self.scatter.data, self.scatter.indices, self.scatter.indptr]
        col = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.indptr))
        self.fronts = None
        if self.band is not None:
            self.band_src = np.flatnonzero(self.indices >= col).astype(np.int32)
            # entry (i, j), i >= j, sits at row i - j of column j of the
            # (b + 1, n) Fortran-ordered band
            src = self.band_src
            self.band_pos = (col[src] * (b + 1) + self.indices[src] - col[src]).astype(np.int32)
            shared += [self.band_src, self.band_pos]
        else:
            self.fronts = _Fronts(nx, ny, nodes, tree, unknown, self.indices, col)
        # cached and shared by every later solve (the index arrays by every
        # assembled matrix), so nothing may change them in place
        for arr in shared:
            arr.flags.writeable = False

    def assemble(self, model: ElasticModel, density: np.ndarray) -> sp.csc_matrix:
        data = self.scatter @ model.simp(density)
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))


def _neighbour_slots() -> np.ndarray:
    """(8, 8) slot of element dof a among the 18 neighbour dofs of element dof b's node.

    A node's neighbour dofs are numbered 6 (dj + 1) + 2 (di + 1) + c for
    component c of the node di, dj steps away; an element's nodes sit at
    (0, 0), (1, 0), (1, 1) and (0, 1).
    """
    corner = np.array([[0, 0], [1, 0], [1, 1], [0, 1]]).repeat(2, axis=0)
    di = corner[:, None, 0] - corner[None, :, 0]
    dj = corner[:, None, 1] - corner[None, :, 1]
    return 6 * (dj + 1) + 2 * (di + 1) + np.arange(8)[:, None] % 2


_NEIGHBOUR_SLOT = _neighbour_slots()


def _pattern(nx: int, ny: int, free: np.ndarray, unknown: np.ndarray):
    """CSC pattern of the free-dof matrix and each node's neighbour ranks.

    Two dofs couple when their nodes share an element, that is when the
    nodes lie at most one step apart on both axes, so both dofs of a node
    couple with the free dofs among the same 18. Column q's rows are those
    unknowns of q's node in ascending order; ``rank[node, t]`` is the place
    of the node's neighbour dof t (see ``_neighbour_slots``) among them.
    """
    n, nnx, nny = free.size, nx + 1, ny + 1
    padded = np.full((nny + 2, nnx + 2, 2), n, dtype=np.int32)  # n marks no unknown
    padded[1:-1, 1:-1] = np.where(unknown >= 0, unknown, n).reshape(nny, nnx, 2)
    steps = [(dj, di) for dj in (-1, 0, 1) for di in (-1, 0, 1)]
    neighbours = np.stack(
        [padded[1 + dj:nny + 1 + dj, 1 + di:nnx + 1 + di] for dj, di in steps], axis=2
    ).reshape(nnx * nny, 18)
    order = np.argsort(neighbours, axis=1, kind="stable")
    rank = np.empty(order.shape, dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(18, dtype=np.int32)[None, :], axis=1)
    rows = np.take_along_axis(neighbours, order, axis=1)[free // 2]
    indices = rows[rows < n]
    indptr = np.concatenate([[0], np.cumsum((rows < n).sum(axis=1))]).astype(np.int32)
    return indices, indptr, rank


def _numbered(nodes: np.ndarray, constrained: np.ndarray):
    """Free dofs in the order of ``nodes``, and each global dof's unknown (-1 if fixed)."""
    order = np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()
    free = order[~np.isin(order, constrained)]
    unknown = np.full(order.size, -1, dtype=np.int32)
    unknown[free] = np.arange(free.size, dtype=np.int32)
    return free, unknown


class _Fronts:
    """Symbolic multifrontal Cholesky on the nested-dissection tree (Liu, SIAM Review 34, 1992).

    Each front of the tree eliminates k unknowns, one contiguous range: the
    free dofs of its separating line or leaf box. Its u update rows are the
    free unknowns of the one-node ring around its box, all numbered later
    and in ascending order: Q4 coupling fills nothing beyond that ring, and each
    child's ring lies inside its parent's line and ring. The factor keeps
    each front's first k columns at an offset of one buffer of ``size``
    entries: the k x k diagonal block (lower triangle), then the u x k block
    below it, both in Fortran order. The lower-triangle CSC entries
    ``entry_src`` of the matrix land at ``entry_pos`` of that buffer.

    ``steps`` holds, front by front in post-order, what the factor and the
    solves read: ``(start, k, u, offset, children, blocks, ring)``, with
    ``ring`` the front's update rows. A child's update rows fall on a few
    runs of consecutive rows of its parent (3-4 on the cracked plate), cut
    at the parent's k, so its extend-add is one slice add per pair of runs:
    ``(child, target, rows, cols, child_rows, child_cols)``, where ``child``
    counts from the front's first child, ``target`` is 0, 1 or 2 for the
    front's diagonal block, the block below it or its own update matrix, and
    the four slices pick the block there and in the child's update matrix.
    """

    def __init__(self, nx: int, ny: int, nodes: np.ndarray, tree: list, unknown: np.ndarray,
                 indices: np.ndarray, col: np.ndarray):
        n, nnx, nny = int((unknown >= 0).sum()), nx + 1, ny + 1
        sizes = np.array([size for size, _, _ in tree])
        free_per_node = (unknown.reshape(-1, 2) >= 0).sum(axis=1)
        k = np.add.reduceat(free_per_node[nodes], np.cumsum(sizes) - sizes)
        start = np.cumsum(k) - k
        nf = len(tree)
        owner, ring = _rings(np.array([box for _, box, _ in tree]), nnx, nny)
        dofs = unknown[np.column_stack([2 * ring, 2 * ring + 1])]
        owner = np.repeat(owner, 2)[dofs.ravel() >= 0]
        ring_keys = np.sort(owner * n + dofs.ravel()[dofs.ravel() >= 0])
        ring = ring_keys % n
        u = np.bincount(owner, minlength=nf)
        rows = np.split(ring, np.cumsum(u)[:-1])
        height = k + u
        offset = np.cumsum(height * k) - height * k
        self.size, self.max_update = int((height * k).sum()), int(u.max())

        # every front's update rows as rows of its parent's front: the
        # parent's own unknowns first, then its ring
        parent = np.zeros(nf, dtype=np.intp)  # the root has no update rows
        for f, (_, _, children) in enumerate(tree):
            parent[children] = f
        owner = ring_keys // n
        ring_base = np.cumsum(u) - u
        p = parent[owner]
        in_ring = k[p] + np.searchsorted(ring_keys, p * n + ring) - ring_base[p]
        pos = np.where(ring < start[p] + k[p], ring - start[p], in_ring)
        # runs of consecutive parent rows, split at the parent's kept columns
        cut = np.ones(ring.size, dtype=bool)
        cut[1:] = (owner[1:] != owner[:-1]) | (np.diff(pos) != 1) | (pos[1:] == k[p[1:]])
        lo = np.flatnonzero(cut)
        hi = np.append(lo[1:], ring.size)
        run_owner = owner[lo]
        first_run = np.searchsorted(run_owner, np.arange(nf + 1))
        runs = list(zip((lo - ring_base[run_owner]).tolist(), (hi - ring_base[run_owner]).tolist(),
                        pos[lo].tolist()))

        steps = []
        for f, (_, _, children) in enumerate(tree):
            kf = int(k[f])
            blocks = []
            for c, child in enumerate(children):
                child_runs = runs[first_run[child]:first_run[child + 1]]
                for a, (a0, a1, pa) in enumerate(child_runs):
                    for b0, b1, pb in child_runs[:a + 1]:
                        # rows pa.. and columns pb.. of the front: its
                        # diagonal block, the block below it or its update
                        # matrix (target 0, 1 or 2)
                        target = 0 if pa < kf else 1 if pb < kf else 2
                        r, s = pa - kf * (target > 0), pb - kf * (target > 1)
                        blocks.append((c, target, slice(r, r + a1 - a0), slice(s, s + b1 - b0),
                                       slice(a0, a1), slice(b0, b1)))
            steps.append((int(start[f]), kf, int(u[f]), int(offset[f]), len(children), blocks,
                          rows[f]))
        self.steps = steps

        # every lower-triangle entry's place in its front's kept columns,
        # in chunks of entries to bound the temporaries
        index = np.int32 if max(self.size, indices.size) < 2**31 else np.int64
        self.entry_src = np.flatnonzero(indices >= col).astype(index)
        self.entry_pos = np.empty_like(self.entry_src)
        front_of = np.repeat(np.arange(nf), k)
        for c in range(0, self.entry_src.size, _BUILD_CHUNK * 64):
            lower = self.entry_src[c:c + _BUILD_CHUNK * 64]
            i, j = indices[lower], col[lower]
            f = front_of[j]
            # the entry's row in its front: its own unknowns, then its ring
            local = i - start[f]
            ring_rows = np.flatnonzero(local >= k[f])
            fr = f[ring_rows]
            local[ring_rows] = (k[fr] - ring_base[fr]
                                + np.searchsorted(ring_keys, fr * n + i[ring_rows]))
            # rows below the diagonal block follow it, u x k in Fortran order
            place = np.where(local < k[f], (j - start[f]) * k[f] + local,
                             k[f] * k[f] + (j - start[f]) * u[f] + local - k[f])
            self.entry_pos[c:c + lower.size] = offset[f] + place
        # shared by every factor of the cached system
        for arr in (self.entry_src, self.entry_pos, *rows):
            arr.flags.writeable = False


def _rings(boxes: np.ndarray, nnx: int, nny: int):
    """The one-node rings around half-open node boxes (i0, i1, j0, j1), inside the lattice.

    Returns each ring node's box and its node id, box by box.
    """
    i0, i1, j0, j1 = boxes.T
    ia, ib = np.maximum(i0 - 1, 0), np.minimum(i1 + 1, nnx)
    # the sides below, above, left and right of each box: first node, step, count
    first = np.stack([(j0 - 1) * nnx + ia, j1 * nnx + ia, j0 * nnx + i0 - 1, j0 * nnx + i1], 1)
    step = np.array([1, 1, nnx, nnx])
    count = np.stack([(ib - ia) * (j0 > 0), (ib - ia) * (j1 < nny),
                      (j1 - j0) * (i0 > 0), (j1 - j0) * (i1 < nnx)], 1).ravel()
    side = np.repeat(np.arange(count.size), count)
    along = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return side // 4, first.ravel()[side] + np.tile(step, boxes.shape[0])[side] * along


def _check_info(info: int, routine: str, first: int = 0) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{first + info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of {routine}")


class _BandCholesky:
    """LAPACK banded Cholesky (pbtrf) of a ``_ReducedSystem`` matrix with ``band`` set.

    ``band`` holds the factor, Fortran-ordered (b + 1, n) in lower band storage.
    """

    def __init__(self, system: _ReducedSystem, k_ff: sp.csc_matrix):
        self.n = system.n
        band = np.zeros((self.n, system.band + 1))
        band.ravel()[system.band_pos] = k_ff.data[system.band_src]
        # the C-ordered (n, b + 1) array is the Fortran-ordered (b + 1, n)
        # lower band pbtrf works in, so the factor overwrites it in place
        self.band, info = lapack.dpbtrf(band.T, lower=1, overwrite_ab=1)
        _check_info(info, "pbtrf")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.n,):
            raise ValueError(f"right-hand side of shape {rhs.shape} for {self.n} unknowns")
        x, info = lapack.dpbtrs(self.band, rhs, lower=1)  # a copy: rhs is left alone
        _check_info(info, "pbtrs")
        return x


class _Multifrontal:
    """Multifrontal Cholesky of a ``_ReducedSystem`` matrix numbered on its ``fronts`` tree.

    Fronts are factored in post-order: assemble the front's columns of the
    matrix, extend-add its children's update matrices, then dpotrf on the
    diagonal block, dtrsm below it and dsyrk into the front's own update
    matrix. A solve walks the fronts forward with dtrsv and dgemv, then back.
    Every kernel goes through scipy.linalg's BLAS and LAPACK wrappers on
    Fortran-ordered views of ``factor``, in place, with every argument passed
    by position: f2py matches keyword arguments by name on each call, which
    took 0.3-1.2 us a call on a 2-vCPU Xeon, as long as a small front's
    kernel, and a 100x200 factor makes ~3 000 calls, each solve ~4 000.
    ``solve_steps`` keeps, for each front with k > 0, its own unknowns, its
    update rows and the views of its diagonal block and the block below it.
    ``nnz`` counts the stored entries, upper triangles of the diagonal blocks
    included.
    """

    def __init__(self, system: _ReducedSystem, k_ff: sp.csc_matrix):
        fronts = self.fronts = system.fronts
        self.n, self.nnz = system.n, fronts.size
        factor = self.factor = np.zeros(fronts.size)
        factor[fronts.entry_pos] = k_ff.data[fronts.entry_src]
        potrf, trsm, syrk = lapack.dpotrf, blas.dtrsm, blas.dsyrk
        self.solve_steps = []
        pending = []  # update matrices of the fronts whose parent is still to come
        for start, k, u, offset, nkids, blocks, ring in fronts.steps:
            diag = factor[offset:offset + k * k].reshape(k, k, order="F")
            below = factor[offset + k * k:offset + (k + u) * k].reshape(u, k, order="F")
            # syrk leaves the upper triangle alone, so it stays zero throughout
            update = np.zeros((u, u), order="F")
            if nkids:
                kids = pending[-nkids:]
                del pending[-nkids:]
                targets = diag, below, update
                for child, target, rows, cols, child_rows, child_cols in blocks:
                    targets[target][rows, cols] += kids[child][child_rows, child_cols]
            if k:
                _, info = potrf(diag, 1, 0, 1)  # lower, clean=0, overwrite_a
                _check_info(info, "potrf", start)
                if u:
                    # side=right, lower, trans_a, diag=non-unit, overwrite_b;
                    # then beta, c, trans=0, lower, overwrite_c
                    trsm(1.0, diag, below, 1, 1, 1, 0, 1)
                    syrk(-1.0, below, 1.0, update, 0, 1, 1)
                self.solve_steps.append((slice(start, start + k), ring, diag, below))
            pending.append(update)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.array(rhs, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"right-hand side of shape {x.shape} for {self.n} unknowns")
        work = np.zeros(self.fronts.max_update)
        trsv, gemv = blas.dtrsv, blas.dgemv
        # trsv's flags: incx, offx, lower, trans, diag=non-unit, overwrite_x;
        # gemv's: beta, y, offx, incx, offy, incy, trans, overwrite_y
        for own, ring, diag, below in self.solve_steps:  # L y = b
            y = x[own]
            trsv(diag, y, 1, 0, 1, 0, 0, 1)
            if ring.size:
                x[ring] -= gemv(1.0, below, y, 0.0, work[:ring.size], 0, 1, 0, 1, 0, 1)
        for own, ring, diag, below in reversed(self.solve_steps):  # L^T x = y
            y = x[own]
            if ring.size:
                gemv(-1.0, below, x[ring], 1.0, y, 0, 1, 0, 1, 1, 1)
            trsv(diag, y, 1, 0, 1, 1, 0, 1)
        return x


def _factorize(system: _ReducedSystem, k_ff: sp.csc_matrix):
    """Cholesky factor of ``k_ff``, banded or multifrontal as ``system`` was numbered for.

    Raises LinAlgError when ``k_ff`` is not positive definite.
    """
    if system.band is not None:
        return _BandCholesky(system, k_ff)
    return _Multifrontal(system, k_ff)


@functools.lru_cache(maxsize=8)
def _reduced_system_cached(
    nx: int, ny: int, ke_unit: bytes, constrained: bytes
) -> _ReducedSystem:
    return _ReducedSystem(
        nx, ny, np.frombuffer(ke_unit), np.frombuffer(constrained, dtype=np.int64)
    )


def _reduced_system(model: ElasticModel, constrained: np.ndarray) -> _ReducedSystem:
    """The cached system of ``model``'s grid and unit element matrix and ``constrained``."""
    g, ke_unit = model.grid, _discretization(model).ke_unit
    return _reduced_system_cached(
        g.nx, g.ny, ke_unit.tobytes(), np.asarray(constrained, dtype=np.int64).tobytes()
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
        system = _reduced_system(model, bc.all_constrained)
        if system.n == disc.ndof:
            raise SingularSystem("no constrained dofs; rigid modes present", "factor")
        k_ff = system.assemble(model, density.values)
        f_f = bc.loads[system.free]
        self.system = system
        try:
            self.factor = _factorize(system, k_ff)
            u_f = self.factor.solve(f_f)
        except np.linalg.LinAlgError as exc:
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
