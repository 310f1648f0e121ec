import numpy as np
import pytest

from wxtopo import (
    DensityField,
    ElasticModel,
    FilterKernel,
    GridSpec,
    LfBounds,
    SeedPoint,
    density_filter,
    lf_optimize,
    mma_update,
    seed_sweep,
)
from wxtopo import benchmark
from wxtopo.errors import GridMismatch
from wxtopo.fem2d import pnorm_objective_grad
from wxtopo.topopt_lf import MmaState, seed_grid

from conftest import cantilever_bc


def brute_force_filter(grid, values, radius):
    """Direct double loop over the neighborhood definition."""
    xs, ys = grid.cell_centers()
    out = np.zeros(grid.n)
    for e in range(grid.n):
        dist = np.hypot(xs - xs[e], ys - ys[e])
        neigh = dist <= radius
        w = 1.0 - dist[neigh] / radius
        out[e] = (w * values[neigh]).sum() / w.sum()
    return out


class TestDensityFilter:
    def test_subcell_radius_is_identity(self, rng):
        g = GridSpec(6, 6, 1.0, 1.0)
        f = DensityField(g, rng.random(g.n))
        out = density_filter(FilterKernel(g, 0.5 * g.hx), f)
        np.testing.assert_allclose(out.values, f.values, atol=1e-15)

    def test_constant_preserved(self):
        g = GridSpec(9, 5, 1.0, 1.0)
        f = DensityField(g, np.full(g.n, 0.37))
        out = density_filter(FilterKernel(g, 3 * g.hx), f)
        np.testing.assert_allclose(out.values, 0.37, atol=1e-14)

    def test_spike_matches_brute_force(self):
        g = GridSpec(7, 7, 7.0, 7.0)
        values = np.zeros(g.n)
        values[3 * 7 + 3] = 1.0
        out = density_filter(FilterKernel(g, 2.5 * g.hx), DensityField(g, values))
        ref = brute_force_filter(g, values, 2.5 * g.hx)
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_random_matches_brute_force(self, rng):
        g = GridSpec(6, 8, 1.5, 2.0)
        values = rng.random(g.n)
        out = density_filter(FilterKernel(g, 0.6), DensityField(g, values))
        ref = brute_force_filter(g, values, 0.6)
        np.testing.assert_allclose(out.values, ref, atol=1e-12)

    def test_grid_mismatch(self):
        kern = FilterKernel(GridSpec(4, 4, 1, 1), 0.3)
        f = DensityField(GridSpec(4, 4, 2, 2), np.zeros(16))
        with pytest.raises(GridMismatch):
            density_filter(kern, f)

    def test_response_width_grows_with_radius(self):
        g = GridSpec(15, 15, 15.0, 15.0)
        values = np.zeros(g.n)
        values[7 * 15 + 7] = 1.0
        f = DensityField(g, values)
        widths = []
        for radius in (1.5, 2.5, 4.0, 6.0):
            out = density_filter(FilterKernel(g, radius), f)
            widths.append((out.values > 1e-12).sum())
        assert all(w1 < w2 for w1, w2 in zip(widths, widths[1:]))


class TestMmaUpdate:
    def grid(self):
        return GridSpec(3, 3, 1.0, 1.0)

    def test_descent_step_hits_move_limit(self):
        # all objective gradients negative and slack constraint: the
        # separable subproblem is decreasing on the whole trust interval,
        # so each variable lands on min(move, 1 - x)
        g = self.grid()
        for start in (0.2, 0.5, 0.9, 0.97):
            x = DensityField(g, np.full(g.n, start))
            state = MmaState(g.n)
            out = mma_update(
                x,
                grad_obj=np.full(g.n, -1.0),
                grad_con=np.full(g.n, 1e-3),
                constraint_value=-1.0,
                move=0.05,
                state=state,
            )
            expected = start + min(0.05, 1.0 - start)
            np.testing.assert_allclose(out.values, expected, atol=1e-9)

    def test_zero_gradients_keep_point(self):
        g = self.grid()
        x = DensityField(g, np.linspace(0.2, 0.8, g.n))
        out = mma_update(x, np.zeros(g.n), np.zeros(g.n), -0.5, 0.05, MmaState(g.n))
        np.testing.assert_allclose(out.values, x.values, atol=1e-12)

    def test_move_limit_contract(self, rng):
        g = self.grid()
        x = DensityField(g, rng.uniform(0.05, 0.95, g.n))
        state = MmaState(g.n)
        current = x
        for _ in range(6):
            out = mma_update(
                current,
                rng.standard_normal(g.n),
                rng.random(g.n),
                float(rng.uniform(-1, 0)),
                0.05,
                state,
            )
            step = out.values - current.values
            assert np.all(step <= 0.05 + 1e-12)
            assert np.all(step >= -0.05 - 1e-12)
            assert out.values.min() >= 0.0 and out.values.max() <= 1.0
            current = out

    def test_active_constraint_respected(self):
        # uniform negative objective gradient wants everything up, but the
        # volume-like constraint is tight: the dual must hold the sum
        g = self.grid()
        x = DensityField(g, np.full(g.n, 0.5))
        vol_grad = np.full(g.n, 1.0 / g.n)
        out = mma_update(x, np.full(g.n, -1.0), vol_grad, 0.0, 0.05, MmaState(g.n))
        assert out.values.mean() <= 0.5 + 1e-9


class TestFilterChainRule:
    def test_gradient_through_filter_matches_fd(self, rng):
        g = GridSpec(8, 4, 2.0, 1.0)
        model = ElasticModel(grid=g)
        bc = cantilever_bc(g)
        kern = FilterKernel(g, 2.5 * g.hx)
        x = rng.uniform(0.3, 0.9, g.n)
        p = 8.0

        def full(xv):
            filt = density_filter(kern, DensityField(g, xv))
            return pnorm_objective_grad(model, filt, bc, p)[0]

        filt = density_filter(kern, DensityField(g, x))
        _, grad_f = pnorm_objective_grad(model, filt, bc, p)
        grad_x = kern.chain(grad_f)
        h = 1e-5  # keeps the quotient above the objective's rounding floor
        for e in rng.choice(g.n, 8, replace=False):
            xp, xm = x.copy(), x.copy()
            xp[e] += h
            xm[e] -= h
            fd = (full(xp) - full(xm)) / (2 * h)
            assert abs(fd - grad_x[e]) / max(abs(fd), 1e-30) < 1e-3


class TestLfOptimize:
    def setup_method(self):
        self.grid = GridSpec(30, 60, 1.0, 2.0)
        self.model = ElasticModel(grid=self.grid)
        self.bc = benchmark.cracked_plate_bc(self.grid)

    def test_descends_and_respects_volume(self):
        res = lf_optimize(
            self.model, self.bc, SeedPoint(0.5, 0.5), p_norm=8.0, max_iter=40
        )
        assert res.ok
        assert res.objective_history[-1] < res.objective_history[0]
        assert res.constraint_residual <= 1e-3
        assert res.iterations == 40

    def test_deterministic(self):
        kw = dict(p_norm=8.0, max_iter=10)
        r1 = lf_optimize(self.model, self.bc, SeedPoint(0.3, 0.7), **kw)
        r2 = lf_optimize(self.model, self.bc, SeedPoint(0.3, 0.7), **kw)
        assert np.array_equal(r1.density.values, r2.density.values)
        assert r1.objective_history == r2.objective_history

    def test_volume_bounds_bind(self):
        # the budget constraint never overshoots (hard invariant) and sits
        # essentially at its bound, which tracks the seed coordinate
        g = GridSpec(16, 32, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        bounds = LfBounds()
        cell_v = g.hx * g.hy
        total = cell_v * g.n
        vols = []
        for s2 in (0.0, 1.0):
            res = lf_optimize(model, bc, SeedPoint(0.0, s2), 8.0, max_iter=40, bounds=bounds)
            vol_frac = cell_v * res.density.values.sum() / total
            bound = bounds.v_min if s2 == 0.0 else bounds.v_max
            assert res.constraint_residual <= 1e-3
            assert vol_frac <= bound + 1e-3 / total
            assert bound - vol_frac <= 2.5e-3  # binds up to the trust-region slack
            vols.append(vol_frac)
        assert vols[1] > vols[0] + 0.25 * (bounds.v_max - bounds.v_min)


class TestSeedSweep:
    def test_single_run_sits_at_origin(self):
        pts = seed_grid(1, 1)
        assert pts == [SeedPoint(0.0, 0.0)]
        bounds = LfBounds()
        assert bounds.radius(pts[0]) == bounds.r_min
        assert bounds.volume(pts[0]) == bounds.v_min

    def test_table_sized_sweep_produces_100(self):
        # 4 x 25 lattice; one subproblem iteration each keeps this cheap
        g = GridSpec(8, 16, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        results = seed_sweep(model, bc, 4, 25, 8.0, max_iter=1, workers=2)
        assert len(results) == 100
        assert all(r.ok for r in results)
        s1_vals = sorted({r.seed.s1 for r in results})
        assert s1_vals == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
        # s1-major order
        assert [r.seed.s1 for r in results[:25]] == [0.0] * 25

    def test_parallel_matches_serial(self):
        g = GridSpec(8, 16, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        serial = seed_sweep(model, bc, 2, 2, 8.0, max_iter=3, workers=1)
        parallel = seed_sweep(model, bc, 2, 2, 8.0, max_iter=3, workers=4)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.density.values, b.density.values)

    def test_failed_runs_become_placeholders(self):
        g = GridSpec(8, 16, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bad_bc = benchmark.cracked_plate_bc(GridSpec(6, 12, 1.0, 2.0))
        results = seed_sweep(model, bad_bc, 2, 2, 8.0, max_iter=2)
        assert len(results) == 4
        for res in results:
            assert not res.ok
            assert res.density is None
            assert "GridMismatch" in res.error
