import copy
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

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
from wxtopo import benchmark, topopt_lf
from wxtopo.errors import DualBisectionFailed, GridMismatch
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


def assert_matches_brute_force(grid, radius, rng):
    """Filter and chain against the oracle's matrix and its transpose."""
    oracle = np.column_stack([brute_force_filter(grid, e, radius) for e in np.eye(grid.n)])
    kern = FilterKernel(grid, radius)
    x, g = rng.random(grid.n), rng.standard_normal(grid.n)
    out = density_filter(kern, DensityField(grid, x))
    np.testing.assert_allclose(out.values, oracle @ x, atol=1e-12)
    np.testing.assert_allclose(kern.chain(g), oracle.T @ g, atol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda g: topopt_lf.check_sweep_settings(ElasticModel(grid=g), 2, 2, 8.0, 10, math.nan),
     "move limit"),
    (lambda g: topopt_lf.check_sweep_settings(ElasticModel(grid=g), 2, 2, math.nan, 10, 0.1),
     "p_norm"),
    (lambda g: mma_update(DensityField(g, np.full(g.n, 0.5)), np.ones(g.n), np.ones(g.n),
                          -1.0, math.nan, MmaState(g.n)), "move limit"),
], ids=["sweep_move", "sweep_p_norm", "mma_move"])
def test_nan_settings_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(GridSpec(3, 3, 1.0, 1.0))


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
        assert_matches_brute_force(GridSpec(6, 8, 1.5, 2.0), 0.6, rng)

    def test_anisotropic_cells_match_brute_force(self, rng):
        assert_matches_brute_force(GridSpec(9, 5, 1.3, 0.7), 0.4, rng)

    def test_radius_wider_than_the_grid_matches_brute_force(self, rng):
        # offsets of a whole grid width or more reach no cell
        assert_matches_brute_force(GridSpec(6, 4, 1.0, 1.0), 1.5, rng)

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


ZEROIN_DUAL = topopt_lf._dual_multiplier


def bisection_dual(con):
    """The dual solve as a plain bracket and 120-step bisection: the reference."""
    if con(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if con(hi) <= 0.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise DualBisectionFailed("could not bracket the dual multiplier")
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if con(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def random_subproblem(rng, volume_like=True):
    """Arguments and asymptote state of one update, with fresh or adapted asymptotes."""
    n = 2 * int(rng.integers(2, 200))
    x = DensityField(GridSpec(n // 2, 2, 1.0, 1.0), rng.uniform(0.0, 1.0, n))
    g0 = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 0) / n
    gc = rng.uniform(0.2, 1.0, n) / n if volume_like else rng.standard_normal(n) / n
    move = float(rng.uniform(0.01, 0.3))
    cv = float(rng.uniform(-0.2, 0.5) * move * np.abs(gc).sum())
    state = MmaState(n)
    if rng.random() < 0.5:
        state.iteration = 2
        state.xold1 = np.clip(x.values + rng.uniform(-0.1, 0.1, n), 0.0, 1.0)
        state.xold2 = np.clip(state.xold1 + rng.uniform(-0.1, 0.1, n), 0.0, 1.0)
        state.low = state.xold1 - rng.uniform(0.05, 0.6, n)
        state.upp = state.xold1 + rng.uniform(0.05, 0.6, n)
    return (x, g0, gc, cv, move), state


def checked_dual(con):
    """The zeroin multiplier and its evaluation count, checked against the bisection.

    The multiplier must be feasible, and within 2**-120 + 1e-12 relative of
    the bisection's: below 2**-67 the 120 halvings of [0, 1] stop short of
    adjacent floats, and their cap decides the bisection's float.
    """
    evals = []
    lam = ZEROIN_DUAL(lambda value: evals.append(value) or con(value))
    ref = bisection_dual(con)
    assert con(lam) <= 0.0
    assert abs(lam - ref) <= 2.0**-120 + 1e-12 * ref
    return lam, len(evals)


def checked_update(monkeypatch, args, state):
    """x_new of one update whose dual goes through ``checked_dual``, with the
    dual's evaluation count and multiplier."""
    solved = []

    def dual(con):
        solved.append(checked_dual(con))
        return solved[-1][0]

    monkeypatch.setattr(topopt_lf, "_dual_multiplier", dual)
    new = mma_update(*args, copy.deepcopy(state)).values
    lam, n_evals = solved[0]
    return new, n_evals, lam


class TestDualReplay:
    """The zeroin dual against a replay of the plain bisection (``bisection_dual``)."""

    def test_random_subproblems_match_bisection(self, monkeypatch):
        rng = np.random.default_rng(9)
        counts, lams = [], []
        for k in range(260):
            args, state = random_subproblem(rng, volume_like=k % 4 != 0)
            try:
                _, n_evals, lam = checked_update(monkeypatch, args, state)
            except DualBisectionFailed:
                monkeypatch.setattr(topopt_lf, "_dual_multiplier", bisection_dual)
                with pytest.raises(DualBisectionFailed):
                    mma_update(*args, copy.deepcopy(state))
                continue
            counts.append(n_evals)
            lams.append(lam)
        lams = np.array(lams)
        assert len(lams) >= 200
        assert (lams == 0).sum() >= 10 and (lams > 0).sum() >= 180
        assert np.median(counts) <= 15 and max(counts) <= 25

    def test_slack_constraint_leaves_every_variable_at_its_move_limit(self, monkeypatch):
        g = GridSpec(3, 3, 1.0, 1.0)
        x = DensityField(g, np.linspace(0.2, 0.8, g.n))
        args = (x, np.full(g.n, -1.0), np.full(g.n, 1e-3), -1.0, 0.05)
        new, n_evals, lam = checked_update(monkeypatch, args, MmaState(g.n))
        assert lam == 0.0 and n_evals == 1
        np.testing.assert_allclose(new, x.values + 0.05, rtol=0, atol=1e-15)

    def test_root_where_every_variable_reaches_its_move_limit(self, monkeypatch):
        # shift the bound so that the constraint turns feasible only just
        # before every variable sits on its lower move limit; con has a kink
        # at nearly every variable's clip point near the root
        rng = np.random.default_rng(3)
        (x, g0, gc, cv, move), state = random_subproblem(rng)
        move = 0.02
        captured = []
        monkeypatch.setattr(
            topopt_lf, "_dual_multiplier", lambda con: captured.append(con) or 0.0
        )
        mma_update(x, g0, gc, cv, move, MmaState(x.grid.n))
        clipped = captured[0](1e12)
        args = (x, g0, gc, cv - clipped - 1e-12, move)
        new, n_evals, lam = checked_update(monkeypatch, args, MmaState(x.grid.n))
        assert lam > 0.0
        np.testing.assert_allclose(new, np.maximum(x.values - move, 0.0), rtol=0, atol=1e-6)
        # con is flat beyond the root, where zeroin's steps shrink the
        # bracket slowly (48 evaluations), still well under a bisection's 120
        assert n_evals <= 100

    def test_roots_beyond_the_unit_bracket(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(6):
            (x, g0, gc, cv, move), state = random_subproblem(rng)
            args = (x, 1e5 * g0, gc, abs(cv), move)
            _, n_evals, lam = checked_update(monkeypatch, args, state)
            assert lam > 16.0
            # one evaluation per doubling, as in the plain solve
            assert n_evals <= 30 + math.ceil(math.log2(lam))

    def test_root_below_the_halving_resolution(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(6):
            (x, g0, gc, cv, move), state = random_subproblem(rng)
            args = (x, g0, 1e24 * gc, 1e24 * abs(cv), move)
            _, n_evals, lam = checked_update(monkeypatch, args, state)
            assert 0.0 < lam < 2.0**-67
            # every variable is clipped between the root and 1, so con is
            # flat there and zeroin bisects down from 1 (44-97 evaluations)
            assert n_evals <= 100

    def test_unbracketed_dual_raises(self):
        # no multiplier makes the step feasible inside the move limits
        g = GridSpec(3, 3, 1.0, 1.0)
        x = DensityField(g, np.full(g.n, 0.5))
        with pytest.raises(DualBisectionFailed):
            mma_update(x, np.zeros(g.n), np.full(g.n, 1.0), 10.0, 0.05, MmaState(g.n))

    def test_plateau_returns_a_feasible_point_on_it(self):
        # con is exactly 0 on [0.25, 0.9]: the bisection lands on the left
        # end of that plateau, while zeroin stops wherever it first meets a
        # zero; either multiplier solves the dual
        def con(lam):
            return max(1.0 - 4.0 * lam, 0.0) if lam <= 0.9 else 0.9 - lam

        lam = ZEROIN_DUAL(con)
        assert 0.25 <= lam <= 0.9 and con(lam) <= 0.0
        assert bisection_dual(con) == 0.25

    def test_lf_run_matches_bisection_in_twenty_evaluations(self, monkeypatch):
        counts = []

        def dual(con):
            lam, n_evals = checked_dual(con)
            counts.append(n_evals)
            return lam

        monkeypatch.setattr(topopt_lf, "_dual_multiplier", dual)
        g = GridSpec(16, 32, 1.0, 2.0)
        res = lf_optimize(ElasticModel(grid=g), benchmark.cracked_plate_bc(g),
                          SeedPoint(0.5, 0.5), p_norm=8.0, max_iter=30)
        assert res.ok and len(counts) == 30
        assert max(counts) <= 20


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

    @pytest.fixture
    def shared_runs(self, monkeypatch):
        """Spread a sweep's runs over forked children on any host; returns the caller's pid.

        Four CPUs are pinned, since the pool forks at most one child fewer,
        and the caller's runs are slowed so the children claim some. Every
        run names its process: as ``pid`` on its result, or at the end of
        its GridMismatch.
        """
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        caller, optimize = os.getpid(), topopt_lf.lf_optimize

        def tagged(*args):
            if os.getpid() == caller:
                time.sleep(0.1)
            try:
                res = optimize(*args)
            except GridMismatch as exc:
                raise GridMismatch(f"{exc} [pid {os.getpid()}]") from exc
            res.pid = os.getpid()  # pickled back with the result
            return res

        monkeypatch.setattr(topopt_lf, "lf_optimize", tagged)
        return caller

    def test_parallel_matches_serial(self, shared_runs):
        g = GridSpec(8, 16, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bc = benchmark.cracked_plate_bc(g)
        serial = seed_sweep(model, bc, 2, 2, 8.0, max_iter=3, workers=1)
        parallel = seed_sweep(model, bc, 2, 2, 8.0, max_iter=3, workers=4)
        assert {r.pid for r in serial} == {shared_runs}
        assert {r.pid for r in parallel} - {shared_runs}
        for a, b in zip(serial, parallel, strict=True):
            assert a.seed == b.seed
            assert a.density.values.tobytes() == b.density.values.tobytes()
            assert np.array(a.objective_history).tobytes() == np.array(
                b.objective_history).tobytes()
            assert (a.iterations, a.non_improving) == (b.iterations, b.non_improving)

    def test_failed_runs_become_placeholders(self, shared_runs):
        g = GridSpec(8, 16, 1.0, 2.0)
        model = ElasticModel(grid=g)
        bad_bc = benchmark.cracked_plate_bc(GridSpec(6, 12, 1.0, 2.0))
        results = seed_sweep(model, bad_bc, 2, 2, 8.0, max_iter=2, workers=2)
        assert len(results) == 4
        for res in results:
            assert not res.ok
            assert res.density is None
            assert "GridMismatch" in res.error
        # placeholders made in the forked child came back through its pipe
        pids = {int(re.search(r"\[pid (\d+)\]$", res.error).group(1)) for res in results}
        assert pids - {shared_runs}


def test_lf_and_hf_paths_leave_scipy_optimize_unimported():
    # importing scipy.optimize raised seed-desk peak RSS by ~18 %; only the
    # LP oracle ``ot.exact_ot_lp`` may pull it in, and lazily
    script = (
        "import sys\n"
        "from wxtopo import SeedPoint, benchmark, config, hf_evaluate, lf_optimize\n"
        "cfg = config.parse_config_text('', preset='desk')\n"
        "g, hf = cfg.grid(), cfg.hf()\n"
        "res = lf_optimize(cfg.model(), benchmark.cracked_plate_bc(g), SeedPoint(0.5, 0.5),"
        " cfg.lf_p_norm, max_iter=1)\n"
        "obj = hf_evaluate(res.density, cfg.model(), benchmark.cracked_plate_bc(hf.refined(g)),"
        " hf)\n"
        "print(res.ok, obj.feasible, 'scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(topopt_lf.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.split() == ["True", "True", "False"]
