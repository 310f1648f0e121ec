"""Structured-grid scalar fields and conversions between density and probability form.

Layout convention: cell (i, j) has i along x in [0, nx) and j along y in [0, ny),
stored row-major as ``values[j * nx + i]``. Cell centers sit at
((i + 0.5) * hx, (j + 0.5) * hy). All field types are immutable after construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AllZeroField, ConstantField, ExtentMismatch, FormatError, GridMismatch

_MAGIC = b"DFLD1"


@dataclass(frozen=True, eq=True)
class GridSpec:
    """Rectangular cell grid: nx-by-ny cells covering an lx-by-ly domain."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 cells per axis, got {self.nx}x{self.ny}")
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):  # NaN fails too
            raise ValueError("physical extents must be positive and finite")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def n(self) -> int:
        return self.nx * self.ny

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates as flat arrays (xs[e], ys[e]) in storage order."""
        xs = (np.arange(self.nx) + 0.5) * self.hx
        ys = (np.arange(self.ny) + 0.5) * self.hy
        gx, gy = np.meshgrid(xs, ys)
        return gx.ravel(), gy.ravel()

    def same_extent(self, other: "GridSpec") -> bool:
        return self.lx == other.lx and self.ly == other.ly


def _as_locked(values, n: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel().copy()
    if arr.size != n:
        raise ValueError(f"{name} length {arr.size} != grid cell count {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DensityField:
    """Material density in [0, 1] per cell."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = _as_locked(self.values, self.grid.n, "values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("density values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled field is read-only too
        return type(self), (self.grid, self.values)

    def as_matrix(self) -> np.ndarray:
        """(ny, nx) view, row j = cells at height index j."""
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def centroid(self) -> tuple[float, float]:
        return mass_centroid(self.grid, self.values)


@dataclass(frozen=True, eq=False)
class ProbabilityField:
    """Nonnegative masses summing to one on the grid cells."""

    grid: GridSpec
    masses: np.ndarray

    def __post_init__(self):
        arr = _as_locked(self.masses, self.grid.n, "masses")
        if arr.min() < 0.0:
            raise ValueError("masses must be nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "masses", arr)

    def __reduce__(self):
        return type(self), (self.grid, self.masses)

    def as_matrix(self) -> np.ndarray:
        return self.masses.reshape(self.grid.ny, self.grid.nx)

    def centroid(self) -> tuple[float, float]:
        return mass_centroid(self.grid, self.masses)


def mass_centroid(grid: GridSpec, weights: np.ndarray) -> tuple[float, float]:
    """Weighted centroid of cell centers, in physical coordinates."""
    w = np.asarray(weights, dtype=np.float64).ravel()
    total = w.sum()
    if total <= 0:
        raise AllZeroField("cannot take the centroid of a zero field")
    xs, ys = grid.cell_centers()
    return float(xs @ w / total), float(ys @ w / total)


def to_probability(field: DensityField, floor: float = 1e-12) -> ProbabilityField:
    """Normalize a density field into a probability field.

    A uniform ``floor`` is added to every cell before normalization so that
    all-void fields stay well defined; min-max scaling on the way back is
    invariant under this shift up to O(floor).
    """
    if floor < 0:
        raise ValueError("floor must be nonnegative")
    shifted = field.values + floor
    total = shifted.sum()
    if total <= 0.0:
        raise AllZeroField("field sums to zero and floor is zero")
    masses = shifted / total
    s = masses.sum()
    if abs(s - 1.0) > 1e-13:  # second pass kills accumulated rounding
        masses = masses / s
    return ProbabilityField(field.grid, masses)


def from_probability_minmax(prob: ProbabilityField) -> DensityField:
    """Min-max scale masses back into a [0, 1] density field."""
    p = prob.masses
    lo = p.min()
    hi = p.max()
    if hi == lo:
        raise ConstantField("probability field is constant; min-max scaling undefined")
    values = (p - lo) / (hi - lo)
    return DensityField(prob.grid, np.clip(values, 0.0, 1.0))


def write_field(field: DensityField, path) -> None:
    """Write a field in the DFLD1 binary format (see read_field)."""
    g = field.grid
    header = _MAGIC + struct.pack("<II", g.nx, g.ny) + struct.pack("<dd", g.lx, g.ly)
    payload = field.values.astype("<f8", copy=False).tobytes()
    Path(path).write_bytes(header + payload)


def read_field(path) -> DensityField:
    """Read a DFLD1 file: magic, LE u32 nx/ny, LE f64 lx/ly, nx*ny LE f64 values."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from exc
    if len(raw) < len(_MAGIC) + 8 + 16:
        raise FormatError(f"{path}: truncated header")
    if raw[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:5]!r}")
    nx, ny = struct.unpack_from("<II", raw, len(_MAGIC))
    lx, ly = struct.unpack_from("<dd", raw, len(_MAGIC) + 8)
    body = raw[len(_MAGIC) + 24:]
    n = nx * ny
    if len(body) != 8 * n:
        raise FormatError(f"{path}: payload holds {len(body) // 8} values, header says {n}")
    values = np.frombuffer(body, dtype="<f8")
    try:
        grid = GridSpec(nx, ny, lx, ly)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
        raise FormatError(f"{path}: values outside [0, 1]")
    return DensityField(grid, values)


def resample(field: DensityField, target: GridSpec) -> DensityField:
    """Bilinear interpolation of cell-center values onto a new grid.

    Physical extents must match. Target centers outside the hull of source
    centers take the nearest edge value, so constants are reproduced exactly
    and the output range never exceeds the input range.
    """
    src = field.grid
    if not src.same_extent(target):
        raise ExtentMismatch(
            f"extents differ: ({src.lx}, {src.ly}) vs ({target.lx}, {target.ly})"
        )
    if target == src:
        return field
    # Fractional source indices of target cell centers, clamped to the
    # source-center hull.
    fx = ((np.arange(target.nx) + 0.5) * target.hx) / src.hx - 0.5
    fy = ((np.arange(target.ny) + 0.5) * target.hy) / src.hy - 0.5
    fx = np.clip(fx, 0.0, src.nx - 1.0)
    fy = np.clip(fy, 0.0, src.ny - 1.0)
    ix0 = np.minimum(fx.astype(int), src.nx - 2)
    iy0 = np.minimum(fy.astype(int), src.ny - 2)
    tx = fx - ix0
    ty = fy - iy0
    mat = field.as_matrix()
    rows = iy0[:, None]
    m00 = mat[rows, ix0]
    m01 = mat[rows, ix0 + 1]
    m10 = mat[rows + 1, ix0]
    m11 = mat[rows + 1, ix0 + 1]
    wx = tx[None, :]
    wy = ty[:, None]
    out = (
        m00 * (1 - wx) * (1 - wy)
        + m01 * wx * (1 - wy)
        + m10 * (1 - wx) * wy
        + m11 * wx * wy
    )
    return DensityField(target, np.clip(out.ravel(), 0.0, 1.0))


def check_same_grid(*fields) -> GridSpec:
    """Raise GridMismatch unless all fields share one GridSpec; return it."""
    grids = {f.grid for f in fields}
    if len(grids) != 1:
        raise GridMismatch(f"fields live on {len(grids)} different grids")
    return next(iter(grids))
