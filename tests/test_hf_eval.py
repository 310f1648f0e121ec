import numpy as np
import pytest

from wxtopo import (
    DensityField,
    DirichletBand,
    ElasticModel,
    GridSpec,
    HfConfig,
    binarize,
    hf_evaluate,
    pde_smooth,
)
from wxtopo.errors import GridMismatch
from wxtopo.hf_eval import _dirichlet_cells, infeasible_sentinel

from conftest import patch_bc


def dense_screened_poisson(grid, values, r_h, bands=()):
    """Loop-built dense 5-point system as an independent oracle."""
    n = grid.n
    amat = np.zeros((n, n))
    rhs = np.asarray(values, dtype=float).copy()
    cx = r_h**2 / grid.hx**2
    cy = r_h**2 / grid.hy**2
    fixed = {}
    for band in bands:
        for cell in _dirichlet_cells(grid, band):
            fixed[int(cell)] = band.value
    for j in range(grid.ny):
        for i in range(grid.nx):
            e = j * grid.nx + i
            if e in fixed:
                amat[e, e] = 1.0
                rhs[e] = fixed[e]
                continue
            amat[e, e] = 1.0
            for di, dj, coef in ((1, 0, cx), (-1, 0, cx), (0, 1, cy), (0, -1, cy)):
                ni, nj = i + di, j + dj
                if 0 <= ni < grid.nx and 0 <= nj < grid.ny:
                    amat[e, e] += coef
                    amat[e, nj * grid.nx + ni] -= coef
    return np.linalg.solve(amat, rhs)


class TestPdeSmooth:
    def test_constant_unchanged(self):
        g = GridSpec(8, 6, 1.0, 1.0)
        cfg = HfConfig(r_h=0.1, refine_factor=1)
        f = DensityField(g, np.full(g.n, 0.42))
        out = pde_smooth(f, cfg)
        np.testing.assert_allclose(out.values, 0.42, atol=1e-12)

    def test_vanishing_radius_is_identity(self, rng):
        g = GridSpec(8, 6, 1.0, 1.0)
        cfg = HfConfig(r_h=1e-6 * g.hx, refine_factor=1)
        f = DensityField(g, rng.random(g.n))
        out = pde_smooth(f, cfg)
        np.testing.assert_allclose(out.values, f.values, atol=1e-6)

    def test_spike_matches_dense_oracle(self):
        g = GridSpec(9, 7, 9.0, 7.0)
        cfg = HfConfig(r_h=2 * g.hx, refine_factor=1)
        values = np.zeros(g.n)
        values[3 * 9 + 4] = 1.0
        out = pde_smooth(DensityField(g, values), cfg)
        ref = dense_screened_poisson(g, values, cfg.r_h)
        np.testing.assert_allclose(out.values, ref, atol=1e-10)

    def test_dirichlet_bands_enforced_and_oracle(self):
        g = GridSpec(10, 8, 1.0, 2.0)
        bands = (
            DirichletBand("top", 0.0, 1.0, 1.0),
            DirichletBand("left", 0.0, 1.0, 1.0),
        )
        cfg = HfConfig(r_h=0.08, refine_factor=1, dirichlet_bands=bands)
        values = np.zeros(g.n)
        out = pde_smooth(DensityField(g, values), cfg)
        ref = dense_screened_poisson(g, values, cfg.r_h, bands)
        np.testing.assert_allclose(out.values, ref, atol=1e-10)
        mat = out.as_matrix()
        np.testing.assert_allclose(mat[-1, :], 1.0)  # top band holds value 1
        assert mat[1:-1, 1:-1].max() < 1.0

    def test_maximum_principle(self, rng):
        g = GridSpec(12, 9, 1.0, 1.0)
        cfg = HfConfig(r_h=0.1, refine_factor=1)
        for _ in range(10):
            values = rng.random(g.n)
            out = pde_smooth(DensityField(g, values), cfg)
            assert out.values.min() >= values.min() - 1e-9
            assert out.values.max() <= values.max() + 1e-9


class TestBinarize:
    def test_uniform_superlevel(self):
        g = GridSpec(4, 4, 1.0, 1.0)
        cfg = HfConfig(r_h=0.01, refine_factor=2)
        out = binarize(DensityField(g, np.full(g.n, 0.7)), cfg)
        assert out.grid == GridSpec(8, 8, 1.0, 1.0)
        np.testing.assert_array_equal(out.values, 1.0)

    def test_exact_threshold_maps_solid(self):
        g = GridSpec(4, 4, 1.0, 1.0)
        cfg = HfConfig(r_h=0.01, refine_factor=1, threshold=0.5)
        out = binarize(DensityField(g, np.full(g.n, 0.5)), cfg)
        np.testing.assert_array_equal(out.values, 1.0)

    def test_ramp_boundary_near_analytic_level_line(self):
        # ramp rho(x) = x / lx crosses 0.5 at x = lx / 2; the refined
        # boundary must sit within one refined cell of that line
        g = GridSpec(16, 8, 1.0, 1.0)
        xs, _ = g.cell_centers()
        cfg = HfConfig(r_h=0.01, refine_factor=2)
        out = binarize(DensityField(g, xs / g.lx), cfg)
        fine = out.grid
        mat = out.as_matrix()
        fxs = (np.arange(fine.nx) + 0.5) * fine.hx
        for row in mat:
            flips = np.where(np.diff(row) != 0)[0]
            assert flips.size == 1
            boundary_x = 0.5 * (fxs[flips[0]] + fxs[flips[0] + 1])
            assert abs(boundary_x - 0.5) <= fine.hx


class TestHfEvaluate:
    def _setup(self, refine=2):
        g = GridSpec(8, 8, 1.0, 1.0)
        model = ElasticModel(grid=g)
        cfg = HfConfig(r_h=0.01, refine_factor=refine)
        bc = patch_bc(cfg.refined(g))
        return g, model, cfg, bc

    def test_solid_patch_objectives(self):
        g, model, cfg, bc = self._setup()
        obj = hf_evaluate(DensityField(g, np.ones(g.n)), model, bc, cfg)
        assert obj.feasible
        assert obj.j[0] == pytest.approx(1.0, rel=1e-6)
        assert obj.j[1] == 1.0

    def test_all_void_is_infeasible_sentinel(self):
        g, model, cfg, bc = self._setup()
        obj = hf_evaluate(DensityField(g, np.zeros(g.n)), model, bc, cfg)
        assert not obj.feasible
        assert np.all(np.isinf(obj.j))

    def test_half_solid_volume_exact(self):
        g, model, cfg, bc = self._setup()
        values = np.zeros(g.n)
        values.reshape(g.ny, g.nx)[:4, :] = 1.0  # bottom half solid
        obj = hf_evaluate(DensityField(g, values), model, bc, cfg)
        assert obj.j[1] == pytest.approx(0.5, abs=1e-12)

    def test_pure_function(self):
        g, model, cfg, bc = self._setup()
        rng = np.random.default_rng(5)
        f = DensityField(g, rng.random(g.n))
        o1 = hf_evaluate(f, model, bc, cfg)
        o2 = hf_evaluate(f, model, bc, cfg)
        assert np.array_equal(o1.j, o2.j) and o1.feasible == o2.feasible

    def test_bc_grid_mismatch(self):
        g, model, cfg, _ = self._setup()
        wrong_bc = patch_bc(g)  # not refined
        with pytest.raises(GridMismatch):
            hf_evaluate(DensityField(g, np.ones(g.n)), model, wrong_bc, cfg)

    def test_volume_invariant_for_binary_field_tiny_radius(self):
        g = GridSpec(10, 10, 1.0, 1.0)
        model = ElasticModel(grid=g)
        cfg = HfConfig(r_h=g.hx / 10.0, refine_factor=1)
        bc = patch_bc(g)
        values = np.zeros(g.n)
        values.reshape(g.ny, g.nx)[:, :5] = 1.0
        obj = hf_evaluate(DensityField(g, values), model, bc, cfg)
        assert obj.j[1] == pytest.approx(0.5, abs=1e-12)

    def test_refined_stress_within_sanity_band_of_coarse(self):
        from wxtopo import max_stress, solve_displacement, von_mises

        g, model, cfg, bc = self._setup()
        rng = np.random.default_rng(9)
        raw = np.clip(rng.random(g.n) * 0.4 + 0.4, 0, 1)
        raw.reshape(g.ny, g.nx)[:2, :] = 1.0  # keep a load path
        raw.reshape(g.ny, g.nx)[-2:, :] = 1.0
        raw.reshape(g.ny, g.nx)[:, 3:5] = 1.0
        candidate = DensityField(g, raw)
        obj = hf_evaluate(candidate, model, bc, cfg)
        assert obj.feasible

        coarse = DensityField(g, np.where(raw >= 0.5, 1.0, 0.0))
        bc_c = patch_bc(g)
        u = solve_displacement(model, coarse, bc_c)
        coarse_max = max_stress(von_mises(model, coarse, u), coarse)
        assert obj.j[0] >= 0.9 * coarse_max

    def test_sentinel_shape(self):
        s = infeasible_sentinel()
        assert not s.feasible
