import ctypes
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack

from wxtopo import (
    BoundaryConditions,
    DensityField,
    ElasticModel,
    GridSpec,
    SeedPoint,
    StressField,
    hf_evaluate,
    lf_optimize,
    max_stress,
    pnorm_stress,
    solve_displacement,
    von_mises,
)
from wxtopo import _pool, benchmark, config, fem2d
from wxtopo.errors import EmptySolidSet, GridMismatch, SingularSystem
from wxtopo.fem2d import pnorm_objective_grad

from conftest import cantilever_bc, patch_bc, symmetric_patch_bc


def solid(grid):
    return DensityField(grid, np.ones(grid.n))


class TestSolveDisplacement:
    @pytest.mark.parametrize("nx,ny,thickness", [(8, 5, 1.0), (6, 9, 2.0)])
    def test_patch_solution(self, nx, ny, thickness):
        # uniform tension: sigma_yy = traction / thickness, linear displacement
        g = GridSpec(nx, ny, 1.0, 1.0)
        e0 = 2.5
        model = ElasticModel(grid=g, e0=e0, thickness=thickness)
        bc = patch_bc(g)
        u = solve_displacement(model, solid(g), bc)
        sigma = 1.0 / thickness
        nnx = g.nx + 1
        for j in range(g.ny + 1):
            for i in range(g.nx + 1):
                node = j * nnx + i
                uy_expect = sigma * (j * g.hy) / e0
                assert u[2 * node + 1] == pytest.approx(uy_expect, abs=1e-8)

    def test_zero_load(self):
        g = GridSpec(6, 6, 1.0, 1.0)
        model = ElasticModel(grid=g)
        bc = patch_bc(g, traction=0.0)
        u = solve_displacement(model, solid(g), bc)
        assert np.all(u == 0.0)

    def test_stiffness_linearity(self):
        g = GridSpec(6, 6, 1.0, 1.0)
        bc = patch_bc(g)
        u1 = solve_displacement(ElasticModel(grid=g, e0=1.0), solid(g), bc)
        u2 = solve_displacement(ElasticModel(grid=g, e0=2.0), solid(g), bc)
        np.testing.assert_allclose(u2, u1 / 2.0, atol=1e-14)

    def test_grid_mismatch(self):
        g = GridSpec(6, 6, 1.0, 1.0)
        model = ElasticModel(grid=g)
        bc = patch_bc(GridSpec(4, 4, 1.0, 1.0))
        with pytest.raises(GridMismatch):
            solve_displacement(model, solid(g), bc)

    def test_compliance_monotone_in_density(self, rng):
        g = GridSpec(8, 8, 1.0, 1.0)
        model = ElasticModel(grid=g)
        bc = cantilever_bc(g)
        base = rng.uniform(0.2, 0.8, g.n)
        c0 = bc.loads @ solve_displacement(model, DensityField(g, base), bc)
        for _ in range(5):
            e = rng.integers(0, g.n)
            bumped = base.copy()
            bumped[e] = min(1.0, bumped[e] + 0.2)
            c1 = bc.loads @ solve_displacement(model, DensityField(g, bumped), bc)
            assert c1 <= c0 + 1e-12


class TestVonMises:
    def test_uniaxial_patch(self):
        g = GridSpec(8, 5, 1.0, 1.0)
        model = ElasticModel(grid=g)
        u = solve_displacement(model, solid(g), patch_bc(g))
        sf = von_mises(model, solid(g), u)
        np.testing.assert_allclose(sf.sigma_vm, 1.0, rtol=1e-8)

    def test_pure_shear_manufactured_field(self):
        # nodal field ux = c*y, uy = c*x gives engineering shear 2c and
        # zero normal strain, so vm = sqrt(3) * G * 2c
        g = GridSpec(4, 4, 1.0, 1.0)
        model = ElasticModel(grid=g, e0=1.0, nu=0.3)
        c = 0.01
        nnx = g.nx + 1
        u = np.zeros(2 * nnx * (g.ny + 1))
        for j in range(g.ny + 1):
            for i in range(g.nx + 1):
                node = j * nnx + i
                u[2 * node] = c * (j * g.hy)
                u[2 * node + 1] = c * (i * g.hx)
        sf = von_mises(model, solid(g), u)
        shear_mod = model.e0 / (2 * (1 + model.nu))
        expected = np.sqrt(3.0) * shear_mod * 2 * c
        np.testing.assert_allclose(sf.sigma_vm, expected, rtol=1e-12)

    def test_relaxation_scales_stress(self):
        g = GridSpec(4, 4, 1.0, 1.0)
        model = ElasticModel(grid=g, q_rel=0.5)
        u = solve_displacement(model, solid(g), patch_bc(g))
        half = DensityField(g, np.full(g.n, 0.25))
        sf = von_mises(model, half, u)
        np.testing.assert_allclose(sf.sigma_vm, 0.5, rtol=1e-8)  # 0.25**0.5


class TestPnorm:
    def test_single_element(self):
        g = GridSpec(2, 2, 1.0, 1.0)
        sf = StressField(g, [5.0, 0.0, 0.0, 0.0])
        for p in (1.0, 8.0, 64.0):
            assert pnorm_stress(sf, p) == pytest.approx(5.0)

    def test_large_p_approaches_max(self):
        g = GridSpec(2, 2, 1.0, 1.0)
        sf = StressField(g, [3.0, 4.0, 0.0, 0.0])
        expected = (3.0**64 + 4.0**64) ** (1.0 / 64.0)
        value = pnorm_stress(sf, 64.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert abs(value - 4.0) / 4.0 < 0.02

    def test_norm_inequalities(self, rng):
        g = GridSpec(4, 4, 1.0, 1.0)
        for p in (1.0, 2.0, 8.0, 32.0):
            sigma = rng.random(g.n) * 10
            sf = StressField(g, sigma)
            v = pnorm_stress(sf, p)
            assert v >= sigma.max() - 1e-12
            assert v <= g.n ** (1.0 / p) * sigma.max() + 1e-12


class TestMaxStress:
    def test_patch_plate(self):
        g = GridSpec(6, 4, 1.0, 1.0)
        model = ElasticModel(grid=g)
        u = solve_displacement(model, solid(g), patch_bc(g))
        sf = von_mises(model, solid(g), u)
        assert max_stress(sf, solid(g)) == pytest.approx(1.0, rel=1e-8)

    def test_threshold_masks_void(self):
        g = GridSpec(2, 2, 1.0, 1.0)
        sf = StressField(g, [10.0, 1.0, 2.0, 3.0])
        density = DensityField(g, [0.2, 1.0, 1.0, 0.4])
        assert max_stress(sf, density, 0.5) == 2.0

    def test_all_void(self):
        g = GridSpec(2, 2, 1.0, 1.0)
        sf = StressField(g, np.ones(4))
        with pytest.raises(EmptySolidSet):
            max_stress(sf, DensityField(g, np.zeros(4)), 0.5)

    def test_bounded_by_pnorm(self, rng):
        g = GridSpec(5, 5, 1.0, 1.0)
        sf = StressField(g, rng.random(g.n) * 7)
        density = DensityField(g, rng.random(g.n))
        if not np.any(density.values >= 0.5):
            density = DensityField(g, np.clip(density.values + 0.5, 0, 1))
        for p in (1.0, 2.0, 8.0, 64.0):
            assert max_stress(sf, density) <= pnorm_stress(sf, p) + 1e-12


class TestPnormSensitivity:
    def test_matches_central_differences(self, rng):
        g = GridSpec(6, 3, 2.0, 1.0)
        model = ElasticModel(grid=g)
        bc = cantilever_bc(g)
        x = rng.uniform(0.3, 0.9, g.n)
        p = 8.0
        grad = pnorm_objective_grad(model, DensityField(g, x), bc, p)[1]

        def objective(xv):
            return pnorm_objective_grad(model, DensityField(g, xv), bc, p)[0]

        h = 1e-6
        for e in rng.choice(g.n, 10, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[e] += h
            xm[e] -= h
            fd = (objective(xp) - objective(xm)) / (2 * h)
            assert abs(fd - grad[e]) / max(abs(fd), 1e-30) < 1e-3

    def test_mirror_symmetry(self):
        g = GridSpec(6, 4, 1.0, 1.0)
        model = ElasticModel(grid=g)
        bc = symmetric_patch_bc(g)
        grad = pnorm_objective_grad(model, DensityField(g, np.full(g.n, 0.6)), bc, 8.0)[1]
        mat = grad.reshape(g.ny, g.nx)
        np.testing.assert_allclose(mat, mat[:, ::-1], atol=1e-9)

    def test_volume_gradient_is_constant(self):
        # the companion (constraint) functional: volume fraction has the
        # trivially constant gradient v_e / V_total
        g = GridSpec(5, 3, 1.0, 1.0)
        cell_v = g.hx * g.hy
        total = cell_v * g.n

        def vol(values):
            return cell_v * values.sum() / total

        x = np.full(g.n, 0.37)
        h = 1e-7
        for e in (0, 7, g.n - 1):
            xp, xm = x.copy(), x.copy()
            xp[e] += h
            xm[e] -= h
            fd = (vol(xp) - vol(xm)) / (2 * h)
            assert fd == pytest.approx(cell_v / total, rel=1e-6)


def constrained_dofs(nx, ny, rollers):
    """Cracked-plate constraints (rollers and pin), or a clamped left edge, on any lattice."""
    left = np.arange(ny + 1) * (nx + 1)
    if rollers:
        return np.union1d(2 * left[: ny // 2 + 1], [1])
    return np.concatenate([2 * left, 2 * left + 1])


def natural_reduced(model, density, bc):
    """Free-dof stiffness the direct way: full COO assembly, CSC, then the free block."""
    disc = fem2d._discretization(model)
    vals = (model.simp(density.values)[:, None] * disc.ke_unit.ravel()[None, :]).ravel()
    rows = np.repeat(disc.edof, 8, axis=1).ravel()
    cols = np.tile(disc.edof, (1, 8)).ravel()
    k_full = sp.coo_matrix((vals, (rows, cols)), shape=(disc.ndof, disc.ndof)).tocsc()
    free = np.setdiff1d(np.arange(disc.ndof), bc.all_constrained)
    return k_full[np.ix_(free, free)].tocsc(), free


def unit_ke():
    """A unit-modulus element matrix, for systems built on grids GridSpec does not take."""
    return fem2d._discretization(ElasticModel(grid=GridSpec(2, 2, 1.0, 1.0))).ke_unit


def rough_band_system(nx, ny):
    """Banded reduced system and matrix of a 38 % random binary cracked plate."""
    g = GridSpec(nx, ny, 1.0, 2.0)
    bc = benchmark.cracked_plate_bc(g)
    density = (np.random.default_rng(0).random(g.n) < 0.38).astype(float)
    model = ElasticModel(grid=g)
    system = fem2d._reduced_system(model, bc.all_constrained)
    assert system.band is not None
    return system, system.assemble(model, density)


FACTOR_PATHS = ("band", "multifrontal")


@pytest.fixture
def factor_path(monkeypatch):
    """``factor_path(p)`` numbers every later system for the banded or the multifrontal Cholesky."""

    def use(path):
        monkeypatch.setattr(fem2d, "_MAX_BAND_WORK", math.inf if path == "band" else 0.0)
        # cached systems keep the numbering they were built with
        fem2d._reduced_system_cached.cache_clear()

    yield use
    fem2d._reduced_system_cached.cache_clear()


def on_path(system, path):
    return (system.band is not None, system.fronts is not None) == (
        path == "band", path == "multifrontal")


GRIDS = [(1, 1), (1, 7), (7, 1), (2, 3), (5, 7), (50, 100)]
# GridSpec needs two cells per axis, so the solves run on the thinnest grids
# it allows; with a single cell row the cracked-plate rollers hold one node
# and leave a rigid rotation
SOLVE_GRIDS = [(2, 2), (2, 7), (7, 2), (2, 3), (5, 7), (50, 100)]


class TestNestedDissection:
    @pytest.mark.parametrize("nx,ny", GRIDS)
    @pytest.mark.parametrize("rollers", [True, False])
    def test_visits_every_free_dof_once(self, nx, ny, rollers, factor_path):
        nodes, fronts = fem2d._nested_dissection(nx, ny)
        np.testing.assert_array_equal(np.sort(nodes), np.arange((nx + 1) * (ny + 1)))
        assert sum(size for size, _, _ in fronts) == nodes.size
        np.testing.assert_array_equal(np.sort(fem2d._short_axis_first(nx, ny)), np.sort(nodes))
        for path in FACTOR_PATHS:
            factor_path(path)
            system = fem2d._ReducedSystem(nx, ny, unit_ke(), constrained_dofs(nx, ny, rollers))
            assert on_path(system, path)
            assert system.n == 2 * nodes.size - constrained_dofs(nx, ny, rollers).size
            np.testing.assert_array_equal(
                np.sort(system.free),
                np.setdiff1d(np.arange(2 * nodes.size), constrained_dofs(nx, ny, rollers)),
            )

    def test_separator_goes_last(self):
        # 51 x 101 nodes: the top-level separator is the middle node row
        nodes, fronts = fem2d._nested_dissection(50, 100)
        np.testing.assert_array_equal(nodes[-51:], 50 * 51 + np.arange(51))
        assert fronts[-1][:2] == (51, (0, 51, 0, 101))

    @pytest.mark.parametrize("nx,ny", [(2, 7), (9, 4), (50, 100), (37, 23)])
    def test_fronts_tile_the_lattice_in_post_order(self, nx, ny):
        # every front's nodes lie in its box, a leaf is at most _LEAF_NODES
        # a side, and a line's children are the two halves of its box
        nodes, fronts = fem2d._nested_dissection(nx, ny)
        first = 0
        for f, (size, (i0, i1, j0, j1), children) in enumerate(fronts):
            own = nodes[first:first + size]
            first += size
            i, j = own % (nx + 1), own // (nx + 1)
            assert np.all((i0 <= i) & (i < i1) & (j0 <= j) & (j < j1))
            assert all(c < f for c in children)
            if not children:
                assert size == (i1 - i0) * (j1 - j0)
                assert max(i1 - i0, j1 - j0) <= fem2d._LEAF_NODES
                continue
            halves = [fronts[c][1] for c in children]
            area = sum((b[1] - b[0]) * (b[3] - b[2]) for b in halves)
            assert area + size == (i1 - i0) * (j1 - j0)

    @pytest.mark.parametrize("nx,ny", SOLVE_GRIDS)
    @pytest.mark.parametrize("rollers", [True, False])
    def test_solve_matches_natural_spsolve(self, nx, ny, rollers, rng, factor_path):
        g = GridSpec(nx, ny, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g) if rollers else cantilever_bc(g)
        density = DensityField(g, rng.uniform(0.2, 1.0, g.n))
        k_ff, free = natural_reduced(model, density, bc)
        expected = spla.spsolve(k_ff, bc.loads[free])
        for path in FACTOR_PATHS:
            factor_path(path)
            u = solve_displacement(model, density, bc)
            assert on_path(fem2d._reduced_system(model, bc.all_constrained), path)
            assert np.linalg.norm(u[free] - expected) <= 1e-9 * np.linalg.norm(expected)
            assert np.all(u[bc.all_constrained] == 0.0)


class TestBandedPath:
    @pytest.mark.parametrize("nx,ny", [(12, 30), (30, 12)])
    def test_short_axis_first_solve_matches_spsolve(self, nx, ny, rng):
        g = GridSpec(nx, ny, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        system = fem2d._reduced_system(model, bc.all_constrained)
        # neighbouring node lines along the long axis are min(nx, ny) + 1 apart
        assert system.band == 2 * min(nx, ny) + 5
        i, j = system.free // 2 % (nx + 1), system.free // 2 // (nx + 1)
        along_short, along_long = (i, j) if nx <= ny else (j, i)
        assert np.all(np.diff(along_long * (min(nx, ny) + 1) + along_short) >= 0)
        density = DensityField(g, rng.uniform(0.2, 1.0, g.n))
        solved = fem2d._Solved(model, density, bc)
        assert isinstance(solved.factor, fem2d._BandCholesky)
        k_ff, free = natural_reduced(model, density, bc)
        expected = spla.spsolve(k_ff, bc.loads[free])
        assert np.linalg.norm(solved.u[free] - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_concurrent_solves_match_serial_and_pin_scipy_blas(self, rng, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool forks on any host
        g = GridSpec(30, 60, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        fields = [DensityField(g, rng.uniform(0.1, 1.0, g.n)) for _ in range(8)]
        serial = [solve_displacement(model, f, bc) for f in fields]
        forked = _pool.parallel_map(lambda f: solve_displacement(model, f, bc), fields, 4)
        for a, b in zip(serial, forked, strict=True):
            np.testing.assert_array_equal(a, b)
        # a banded factor holds scipy's OpenBLAS at one thread from then on
        get = getattr(ctypes.CDLL(cython_lapack.__file__), "scipy_openblas_get_num_threads", None)
        if get is not None:
            assert get() == 1

    def test_factor_does_not_depend_on_blas_threads(self):
        # on this band (b = 165) pbtrf's BLAS-3 updates round differently
        # when OpenBLAS runs two threads; runs must stay byte-identical.
        # numpy's own OpenBLAS, which the barycenter's GEMMs use, is held at
        # one thread from the import on too
        script = (
            "import ctypes, hashlib, numpy as np\n"
            "from numpy._core import _multiarray_umath\n"
            "from scipy.linalg import cython_lapack\n"
            "from wxtopo import benchmark, fem2d\n"
            "from wxtopo.grid_field import DensityField, GridSpec\n"
            "def threads(module, name):\n"
            "    get = getattr(ctypes.CDLL(module.__file__), name, None)\n"
            "    return -1 if get is None else get()\n"
            "def numpy_threads():\n"
            "    return threads(_multiarray_umath, 'scipy_openblas_get_num_threads64_')\n"
            "g = GridSpec(80, 160, 1.0, 2.0)\n"
            "d = DensityField(g, (np.random.default_rng(0).random(g.n) < 0.38) * 1.0)\n"
            "def digest():\n"
            "    u = fem2d.solve_displacement(fem2d.ElasticModel(grid=g), d,"
            " benchmark.cracked_plate_bc(g))\n"
            "    return hashlib.sha256(u.tobytes()).hexdigest()\n"
            "before = numpy_threads()\n"
            "print(digest())\n"
            "print(before, numpy_threads())\n"
            "print(threads(cython_lapack, 'scipy_openblas_get_num_threads'))\n"
        )
        src = str(Path(fem2d.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300, check=True)
            digest, numpy_counts, scipy_count = out.stdout.split("\n")[:3]
            digests.add(digest)
            before, after = map(int, numpy_counts.split())
            assert after == before and before in (1, -1)  # -1: numpy's BLAS lacks the symbol
            assert int(scipy_count) in (1, -1)
        assert len(digests) == 1

    @pytest.mark.parametrize("nx,ny", [(50, 100), (100, 200)])
    def test_factor_and_solve_match_scipy_bit_for_bit(self, nx, ny, factor_path):
        # the desk LF system and, forced onto the band, the desk HF system;
        # scipy.linalg's banded Cholesky and solve are the oracle for the
        # factor's pbtrf and pbtrs calls
        factor_path("band")
        system, k_ff = rough_band_system(nx, ny)
        band = np.zeros((system.n, system.band + 1))
        band.ravel()[system.band_pos] = k_ff.data[system.band_src]
        expected = sla.cholesky_banded(band.T, lower=True, check_finite=False)
        factor = fem2d._BandCholesky(system, k_ff)
        np.testing.assert_array_equal(factor.band, expected)
        rhs = np.random.default_rng(1).standard_normal(system.n)
        kept = rhs.copy()
        np.testing.assert_array_equal(
            factor.solve(rhs), sla.cho_solve_banded((expected, True), rhs, check_finite=False)
        )
        np.testing.assert_array_equal(rhs, kept)

    def test_factor_follows_the_band_work(self):
        # the desk LF grid and 95x190, the largest grid the band factored
        # faster with two processes at once, factor banded; from 100x200 on
        # (the desk HF and paper2d LF grid, then the paper2d HF grid) the
        # multifrontal Cholesky takes over, in either orientation
        for nx, ny in [(50, 100), (95, 190), (100, 200), (200, 100), (200, 400), (400, 200)]:
            system = fem2d._ReducedSystem(nx, ny, unit_ke(), constrained_dofs(nx, ny, True))
            b = 2 * min(nx, ny) + 5
            assert system.band == (b if system.n * b * b <= fem2d._MAX_BAND_WORK else None)
            assert (system.band is None) == (max(nx, ny) >= 200)
            assert (system.fronts is None) == (system.band is not None)

    def test_the_100x200_path_switch_moves_only_rounding(self, factor_path):
        # the desk HF grid: a desk design after five LF iterations, smoothed
        # and binarized onto 100x200; the paper2d LF grid: a grey design's
        # P-norm stress and adjoint gradient. Both factors agree to rounding
        desk = config.parse_config_text("", preset="desk")
        paper = config.parse_config_text("", preset="paper2d")
        g, hf = desk.grid(), desk.hf()
        design = lf_optimize(desk.model(), benchmark.cracked_plate_bc(g), SeedPoint(0.5, 0.5),
                             desk.lf_p_norm, max_iter=5).density
        hf_bc = benchmark.cracked_plate_bc(hf.refined(g))
        lf_bc = benchmark.cracked_plate_bc(paper.grid())
        grey = DensityField(paper.grid(), np.random.default_rng(6).uniform(0.1, 1.0, lf_bc.grid.n))
        results = {}
        for path in FACTOR_PATHS:
            factor_path(path)
            objectives = hf_evaluate(design, desk.model(), hf_bc, hf)
            assert objectives.feasible
            value, grad = pnorm_objective_grad(paper.model(), grey, lf_bc, paper.lf_p_norm)
            results[path] = objectives.j, value, np.linalg.norm(grad)
        (j_band, value_band, norm_band), (j_mf, value_mf, norm_mf) = results.values()
        np.testing.assert_allclose(j_mf, j_band, rtol=1e-10, atol=0)
        assert value_mf == pytest.approx(value_band, rel=1e-10, abs=0)
        assert norm_mf == pytest.approx(norm_band, rel=1e-10, abs=0)


def rough_multifrontal_system(nx, ny, seed=0):
    """Reduced system on the dissection tree and matrix of a 38 % random binary cracked plate.

    The caller forces the multifrontal path first (``factor_path``).
    """
    g = GridSpec(nx, ny, 1.0, 2.0)
    bc = benchmark.cracked_plate_bc(g)
    density = (np.random.default_rng(seed).random(g.n) < 0.38).astype(float)
    model = ElasticModel(grid=g)
    system = fem2d._reduced_system(model, bc.all_constrained)
    assert system.fronts is not None
    return system, system.assemble(model, density), bc.loads[system.free]


class TestMultifrontalPath:
    def test_concurrent_factors_match_serial_bit_for_bit(self, factor_path, monkeypatch):
        # the caller and a forked child factor and solve different designs
        # at once; each must give the bits a serial run gives
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the pool forks on any host
        factor_path("multifrontal")
        cases = [rough_multifrontal_system(60, 120, seed) for seed in (1, 2)]
        assert cases[0][0] is cases[1][0]

        def run(case):
            system, k_ff, f = case
            factor = fem2d._Multifrontal(system, k_ff)
            return factor.factor, factor.solve(f)

        serial = [run(case) for case in cases]
        assert not cases[0][0].fronts.entry_pos.flags.writeable
        for _ in range(3):
            forked = _pool.parallel_map(run, cases, 2)
            for (factor_a, u_a), (factor_b, u_b) in zip(serial, forked, strict=True):
                np.testing.assert_array_equal(factor_a, factor_b)
                np.testing.assert_array_equal(u_a, u_b)

    def test_factor_does_not_depend_on_blas_threads(self):
        # the 80x160 cracked plate forced onto the dissection tree gives the
        # same bits with one or two OpenBLAS threads
        script = (
            "import hashlib, numpy as np\n"
            "from wxtopo import benchmark, fem2d\n"
            "from wxtopo.grid_field import DensityField, GridSpec\n"
            "fem2d._MAX_BAND_WORK = 0.0\n"
            "g = GridSpec(80, 160, 1.0, 2.0)\n"
            "d = DensityField(g, (np.random.default_rng(0).random(g.n) < 0.38) * 1.0)\n"
            "def digest():\n"
            "    u = fem2d.solve_displacement(fem2d.ElasticModel(grid=g), d,"
            " benchmark.cracked_plate_bc(g))\n"
            "    return hashlib.sha256(u.tobytes()).hexdigest()\n"
            "print(digest())\n"
        )
        src = str(Path(fem2d.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=300, check=True)
            digests.update(out.stdout.split())
        assert len(digests) == 1

    def test_solve_leaves_rhs_alone_and_repeats_bit_for_bit(self, factor_path):
        # the solves write through views of their own copy of the
        # right-hand side: the caller's array and the factor stay as they
        # were, and a second solve with the same factor gives the same bits
        factor_path("multifrontal")
        system, k_ff, _ = rough_multifrontal_system(30, 60)
        factor = fem2d._Multifrontal(system, k_ff)
        rhs = np.random.default_rng(3).standard_normal(system.n)
        kept, kept_factor = rhs.copy(), factor.factor.copy()
        first = factor.solve(rhs)
        np.testing.assert_array_equal(rhs, kept)
        np.testing.assert_array_equal(factor.solve(rhs), first)
        np.testing.assert_array_equal(factor.factor, kept_factor)

    def test_solve_matches_dense_cholesky(self, factor_path):
        # the factor's lower triangle, scattered back to the matrix's
        # numbering, is the dense Cholesky factor up to rounding
        factor_path("multifrontal")
        g = GridSpec(10, 24, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        system = fem2d._reduced_system(model, bc.all_constrained)
        k_ff = system.assemble(model, np.random.default_rng(4).uniform(0.2, 1.0, g.n))
        f = bc.loads[system.free]
        factor = fem2d._Multifrontal(system, k_ff)
        dense = k_ff.toarray()
        expected = np.linalg.solve(dense, f)
        u = factor.solve(f)
        assert np.linalg.norm(u - expected) <= 1e-10 * np.linalg.norm(expected)
        # each front's k x k diagonal block, then its u x k block below, in
        # Fortran order: read from the buffer, so a kernel that worked on a
        # copy of its operand leaves the matrix's entries here
        lower = np.zeros_like(dense)
        for start, k, u_rows, offset, _, _, ring in system.fronts.steps:
            diag = factor.factor[offset:offset + k * k].reshape(k, k, order="F")
            below = factor.factor[offset + k * k:offset + (k + u_rows) * k]
            own = np.arange(start, start + k)
            lower[np.ix_(own, own)] = np.tril(diag)
            lower[np.ix_(ring, own)] = below.reshape(u_rows, k, order="F")
        chol = np.linalg.cholesky(dense)
        assert np.abs(lower - chol).max() <= 1e-12 * np.abs(chol).max()

    def test_indefinite_matrix_fails_the_factor(self, monkeypatch, factor_path):
        # a negative modulus in one corner makes K_ff indefinite: dpotrf
        # stops inside the tree, and _Solved names the factor as the cause
        factor_path("multifrontal")
        g = GridSpec(30, 60, 1.0, 2.0)
        corner = np.zeros((g.ny, g.nx), dtype=bool)
        corner[40:, 20:] = True
        monkeypatch.setattr(ElasticModel, "simp",
                            lambda self, density: np.where(corner.ravel(), -1.0, 1.0))
        with pytest.raises(SingularSystem, match="not positive definite") as info:
            solve_displacement(ElasticModel(grid=g), solid(g), benchmark.cracked_plate_bc(g))
        assert info.value.cause == "factor"
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.slow
    def test_paper_grid_factor_is_backward_stable_and_smaller_than_superlu(self):
        # the paper's 200x400 HF grid with a 40 % random binary design, on
        # the path the size rule picks: one solve without refinement is
        # backward stable, and the factor stores less than SuperLU's LU under
        # the same ordering with diagonal pivots
        g = GridSpec(200, 400, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        system = fem2d._reduced_system(model, bc.all_constrained)
        assert system.fronts is not None
        density = (np.random.default_rng(0).random(g.n) < 0.4).astype(float)
        k_ff, f = system.assemble(model, density), bc.loads[system.free]
        factor = fem2d._factorize(system, k_ff)
        u = factor.solve(f)
        scale = abs(k_ff) @ np.abs(u) + np.abs(f)
        assert np.all(np.abs(k_ff @ u - f) <= fem2d.BACKWARD_ERROR_BOUND * scale)
        lu = spla.splu(k_ff, permc_spec="NATURAL",
                       options={"SymmetricMode": True, "DiagPivotThresh": 0.0})
        assert factor.nnz < lu.nnz


class TestReducedAssembly:
    def test_matches_full_assembly_then_free_block(self, rng):
        g = GridSpec(7, 10, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        density = DensityField(g, rng.uniform(0.0, 1.0, g.n))
        natural, free = natural_reduced(model, density, bc)
        system = fem2d._reduced_system(model, bc.all_constrained)
        k_ff = system.assemble(model, density.values)
        np.testing.assert_array_equal(np.sort(system.free), free)
        # the natural free block with its rows and columns in factor order
        q = np.searchsorted(free, system.free)
        expected = natural[q][:, q].tocsc()
        expected.sort_indices()
        k_ff.sort_indices()
        np.testing.assert_array_equal(k_ff.indptr, expected.indptr)
        np.testing.assert_array_equal(k_ff.indices, expected.indices)
        scale = np.abs(expected.data).max()
        assert np.abs(k_ff.data - expected.data).max() <= 1e-15 * scale

    def test_repeat_solve_leaves_cached_pattern_alone(self, rng):
        g = GridSpec(7, 10, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        density = DensityField(g, rng.uniform(0.2, 1.0, g.n))
        system = fem2d._reduced_system(model, bc.all_constrained)
        assert system.band is not None
        scatter = system.scatter
        shared = (system.indices, system.indptr, system.band_src, system.band_pos,
                  scatter.data, scatter.indices, scatter.indptr)
        before = [a.copy() for a in shared]
        first = solve_displacement(model, density, bc)
        second = solve_displacement(model, density, bc)
        np.testing.assert_array_equal(first, second)
        assert fem2d._reduced_system(model, bc.all_constrained) is system
        for arr, old in zip(shared, before):
            assert not arr.flags.writeable
            np.testing.assert_array_equal(arr, old)
        with pytest.raises(ValueError, match="read-only"):
            scatter.data[0] = 0.0

    def test_models_on_one_grid_keep_their_own_systems(self, rng):
        # the cached system is keyed by the element matrix, so models that
        # differ in nu or thickness on one grid never share a scatter matrix
        g = GridSpec(8, 12, 1.0, 2.0)
        bc = benchmark.cracked_plate_bc(g)
        models = [ElasticModel(grid=g), ElasticModel(grid=g, nu=0.2),
                  ElasticModel(grid=g, thickness=0.5)]
        density = DensityField(g, rng.uniform(0.2, 1.0, g.n))
        systems = [fem2d._reduced_system(m, bc.all_constrained) for m in models]
        assert len({id(s) for s in systems}) == len(models)
        for _ in range(2):  # interleaved, after every system is cached
            for model, system in zip(models, systems):
                natural, free = natural_reduced(model, density, bc)
                assert fem2d._reduced_system(model, bc.all_constrained) is system
                expected = spla.spsolve(natural, bc.loads[free])
                u = solve_displacement(model, density, bc)
                assert np.linalg.norm(u[free] - expected) <= 1e-12 * np.linalg.norm(expected)
                q = np.searchsorted(free, system.free)
                k_ff = system.assemble(model, density.values)
                diff = (k_ff - natural[q][:, q]).tocsc()
                assert np.abs(diff.data).max(initial=0.0) <= 1e-15 * np.abs(natural.data).max()

    @pytest.mark.parametrize("path, nx, ny, rollers", [
        ("band", 20, 40, True), ("multifrontal", 20, 40, True), ("multifrontal", 9, 14, False),
    ])
    def test_scatter_matches_element_order_bincount(self, factor_path, path, nx, ny, rollers):
        # oracle: the assembly the scatter product replaced, every kept
        # element-matrix entry scaled and summed by bincount in element order
        factor_path(path)
        g = GridSpec(nx, ny, 1.0, 2.0)
        model = ElasticModel(grid=g, nu=0.27)
        bc = benchmark.cracked_plate_bc(g) if rollers else cantilever_bc(g)
        system = fem2d._reduced_system(model, bc.all_constrained)
        assert on_path(system, path)
        disc = fem2d._discretization(model)
        unknown = np.full(disc.ndof, -1)
        unknown[system.free] = np.arange(system.n)
        local = unknown[disc.edof]
        rows = np.repeat(local, 8, axis=1).ravel()
        cols = np.tile(local, (1, 8)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique(cols[keep] * system.n + rows[keep], return_inverse=True)
        np.testing.assert_array_equal(system.indices, keys % system.n)
        rng = np.random.default_rng(3)
        for density in (rng.random(g.n), (rng.random(g.n) < 0.4) * 1.0, np.full(g.n, 0.5)):
            vals = np.multiply.outer(model.simp(density), disc.ke_unit.ravel()).ravel()[keep]
            expected = np.bincount(slot, weights=vals, minlength=keys.size)
            np.testing.assert_array_equal(system.assemble(model, density).data, expected)

    def test_nested_dissection_fills_less_than_mmd(self, factor_path):
        factor_path("multifrontal")
        # guards the ordering: the 100x200 cracked plate of a uniform 0.5
        # design, numbered on the dissection tree as the larger grids are,
        # must factor with fewer stored entries than SuperLU's LU under MMD
        g = GridSpec(100, 200, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        density = DensityField(g, np.full(g.n, 0.5))
        nd_nnz = fem2d._Solved(model, density, bc).factor.nnz
        k_ff, _ = natural_reduced(model, density, bc)
        mmd = spla.splu(k_ff, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        assert nd_nnz < mmd.nnz

    def test_rough_design_keeps_the_uniform_fill(self, factor_path):
        factor_path("multifrontal")
        # a 38 % random binary design has pivots far below their columns'
        # largest entries; a factor that pivoted off the diagonal (as
        # SuperLU's LU did by default) stored 14.4M entries here against
        # 5.27M for a uniform design, while the Cholesky keeps its symbolic fill
        g = GridSpec(100, 200, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        rough = DensityField(g, (np.random.default_rng(0).random(g.n) < 0.38).astype(float))
        uniform = DensityField(g, np.full(g.n, 0.5))
        rough_nnz = fem2d._Solved(model, rough, bc).factor.nnz
        assert rough_nnz <= 1.05 * fem2d._Solved(model, uniform, bc).factor.nnz


def thin_cracked_plate():
    """100x200 cracked plate solid only where y < 0.1 or x > 0.98 (6.9 % solid).

    The loaded right edge hangs on a two-cell strip, a near mechanism whose
    relative residual (2.2e-8) sits below its own fp64 roundoff bound (~1e-7).
    """
    g = GridSpec(100, 200, 1.0, 2.0)
    xs = (np.arange(g.nx) + 0.5) * g.hx
    ys = (np.arange(g.ny) + 0.5) * g.hy
    solid_cells = (ys[:, None] < 0.1) | (xs[None, :] > 0.98)
    return ElasticModel(grid=g), DensityField(g, solid_cells.ravel().astype(float))


class TestBackwardErrorCheck:
    def test_thin_near_mechanism_solves(self):
        # a relative-residual test at 1e-10 rejected this correct solve
        model, density = thin_cracked_plate()
        bc = benchmark.cracked_plate_bc(model.grid)
        assert density.values.mean() == pytest.approx(0.069)
        k_ff, free = natural_reduced(model, density, bc)
        expected = spla.spsolve(k_ff, bc.loads[free])
        u = solve_displacement(model, density, bc)
        assert np.linalg.norm(u[free] - expected) <= 1e-6 * np.linalg.norm(expected)

    def test_wrong_solution_rejected(self, monkeypatch, factor_path):
        model, density = thin_cracked_plate()
        g = model.grid
        bc = benchmark.cracked_plate_bc(g)
        factorize = fem2d._factorize
        for path in FACTOR_PATHS:
            factor_path(path)
            monkeypatch.setattr(fem2d, "_factorize", factorize)
            delta = 1e-6 * np.abs(solve_displacement(model, density, bc)).max()
            # ux of the node at the top of the bottom-right corner cell, inside
            # the solid strip along the right edge, as an unknown of the factor
            node = 1 * (g.nx + 1) + g.nx
            system = fem2d._reduced_system(model, bc.all_constrained)
            assert on_path(system, path)
            q = int(np.flatnonzero(system.free == 2 * node)[0])

            class OffByDelta:
                # every solve comes back off by delta in unknown q, so the
                # refinement step cannot remove it
                def __init__(self, *args):
                    self.factor = factorize(*args)

                def solve(self, rhs):
                    out = self.factor.solve(rhs)
                    out[q] += delta
                    return out

            monkeypatch.setattr(fem2d, "_factorize", OffByDelta)
            with pytest.raises(SingularSystem, match="backward error.*relative residual"):
                solve_displacement(model, density, bc)


class TestSolveFailureCause:
    """Each SingularSystem names the check that failed."""

    def setup_method(self):
        self.grid = GridSpec(6, 6, 1.0, 1.0)
        self.model = ElasticModel(grid=self.grid)

    def test_factor(self, monkeypatch, factor_path):
        # both paths raise LinAlgError, the only error a failed factor becomes
        for path in FACTOR_PATHS:
            factor_path(path)
            for error in (np.linalg.LinAlgError, RuntimeError):

                def singular(system, k_ff):
                    assert on_path(system, path)
                    raise error("Factor is exactly singular")

                monkeypatch.setattr(fem2d, "_factorize", singular)
                expected = SingularSystem if error is np.linalg.LinAlgError else RuntimeError
                with pytest.raises(expected, match="exactly singular") as info:
                    solve_displacement(self.model, solid(self.grid), patch_bc(self.grid))
                if expected is SingularSystem:
                    assert info.value.cause == "factor"

    @pytest.mark.parametrize("path", FACTOR_PATHS)
    def test_zero_stiffness(self, monkeypatch, factor_path, path):
        # every element at zero modulus: K_ff = 0, which neither factor accepts
        factor_path(path)
        monkeypatch.setattr(ElasticModel, "simp", lambda self, density: np.zeros_like(density))
        with pytest.raises(SingularSystem) as info:
            solve_displacement(self.model, solid(self.grid), patch_bc(self.grid))
        assert info.value.cause == "factor"
        assert "not positive definite" in str(info.value)

    def test_rigid_modes(self):
        # a constraint outside the lattice leaves every dof free
        bc = patch_bc(self.grid)
        free_bc = BoundaryConditions(self.grid, fixed_dofs=[10**6], loads=bc.loads)
        with pytest.raises(SingularSystem, match="rigid modes") as info:
            solve_displacement(self.model, solid(self.grid), free_bc)
        assert info.value.cause == "factor"

    def test_non_finite(self):
        bc = patch_bc(self.grid)
        loads = bc.loads.copy()
        loads[np.flatnonzero(loads)[0]] = np.inf
        inf_bc = BoundaryConditions(
            self.grid, fixed_dofs=bc.fixed_dofs, loads=loads, roller_dofs=bc.roller_dofs
        )
        with pytest.raises(SingularSystem, match="non-finite") as info:
            solve_displacement(self.model, solid(self.grid), inf_bc)
        assert info.value.cause == "non_finite"

    def test_backward_error(self, monkeypatch, factor_path):
        factorize = fem2d._factorize

        class OffInFirstUnknown:
            def __init__(self, *args):
                self.factor = factorize(*args)

            def solve(self, rhs):
                out = self.factor.solve(rhs)
                out[0] += 1e-3 * np.abs(out).max()
                return out

        monkeypatch.setattr(fem2d, "_factorize", OffInFirstUnknown)
        for path in FACTOR_PATHS:
            factor_path(path)
            with pytest.raises(SingularSystem, match="backward error.*relative residual") as info:
                solve_displacement(self.model, solid(self.grid), patch_bc(self.grid))
            assert info.value.cause == "backward_error"
            system = fem2d._reduced_system(self.model, patch_bc(self.grid).all_constrained)
            assert on_path(system, path)
