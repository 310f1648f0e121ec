import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxtopo import (
    CrossoverConfig,
    DensityField,
    GridSpec,
    adaptive_epsilon,
    generate_offspring,
    linear_crossover,
    pairwise_distances,
    wasserstein_crossover,
)
from wxtopo.errors import ConstantField, GridMismatch, PopulationTooSmall
from wxtopo.ot import squared_distance_matrix

from conftest import disk_field, gaussian_field, lp_barycenter


def field(grid, values):
    return DensityField(grid, values)


class TestPairwiseDistances:
    def test_identical_fields(self):
        g = GridSpec(2, 2, 1, 1)
        f = field(g, [0.2, 0.4, 0.6, 0.8])
        dm = pairwise_distances([f, f])
        assert np.array_equal(dm.d, np.zeros((2, 2)))
        assert dm.d_min == dm.d_max == 0.0

    def test_hand_arithmetic(self):
        g = GridSpec(2, 2, 1, 1)
        f1 = field(g, [1, 0, 0, 0])
        f2 = field(g, [0, 1, 0, 0])
        dm = pairwise_distances([f1, f2])
        assert dm.d[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_against_brute_force(self, rng):
        g = GridSpec(4, 3, 1, 1)
        pop = [field(g, rng.random(g.n)) for _ in range(5)]
        dm = pairwise_distances(pop)
        for i in range(5):
            for j in range(5):
                ref = np.linalg.norm(pop[i].values - pop[j].values)
                assert abs(dm.d[i, j] - ref) < 1e-12

    def test_too_small(self):
        g = GridSpec(2, 2, 1, 1)
        with pytest.raises(PopulationTooSmall):
            pairwise_distances([field(g, np.zeros(4))])


class TestAdaptiveEpsilon:
    def setup_method(self):
        g = GridSpec(2, 2, 1, 1)
        pop = [
            field(g, [0, 0, 0, 0]),
            field(g, [0.5, 0, 0, 0]),
            field(g, [1, 1, 1, 1]),
        ]
        self.dm = pairwise_distances(pop)
        self.cfg = CrossoverConfig(eps_min=1e-6, eps_max=1e-4)

    def test_endpoints(self):
        assert adaptive_epsilon(self.dm.d_min, self.dm, self.cfg) == self.cfg.eps_min
        assert adaptive_epsilon(self.dm.d_max, self.dm, self.cfg) == self.cfg.eps_max

    def test_midpoint(self):
        mid = 0.5 * (self.dm.d_min + self.dm.d_max)
        expected = 0.5 * (self.cfg.eps_min + self.cfg.eps_max)
        assert adaptive_epsilon(mid, self.dm, self.cfg) == pytest.approx(expected)

    def test_degenerate_range(self):
        g = GridSpec(2, 2, 1, 1)
        f = field(g, [0.2, 0.4, 0.6, 0.8])
        dm = pairwise_distances([f, f])
        assert adaptive_epsilon(0.0, dm, self.cfg) == self.cfg.eps_min

    @pytest.mark.parametrize("tau", [-1.0, float("nan")])
    def test_tau_must_be_nonnegative(self, tau):
        with pytest.raises(ValueError, match="tau >= 0"):
            CrossoverConfig(tau=tau)

    @pytest.mark.parametrize(
        "eps_min, eps_max",
        [(1e-3, float("inf")), (1e-3, float("nan")), (float("nan"), 1e-3),
         (float("inf"), float("inf"))],
    )
    def test_eps_bounds_must_be_finite(self, eps_min, eps_max):
        # an infinite or NaN bound made adaptive_epsilon return inf or NaN,
        # and every child silently fell back to the linear operator
        with pytest.raises(ValueError, match="eps_max < inf"):
            CrossoverConfig(eps_min=eps_min, eps_max=eps_max)

    @given(st.floats(min_value=-1.0, max_value=5.0), st.floats(min_value=-1.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_clamped(self, d1, d2):
        e1 = adaptive_epsilon(d1, self.dm, self.cfg)
        e2 = adaptive_epsilon(d2, self.dm, self.cfg)
        if d1 <= d2:
            assert e1 <= e2
        assert self.cfg.eps_min <= e1 <= self.cfg.eps_max


class TestLinearCrossover:
    def test_endpoint_copies_parent(self):
        g = GridSpec(2, 2, 1, 1)
        f1 = field(g, [0.1, 0.3, 0.5, 0.7])
        f2 = field(g, [0.9, 0.9, 0.9, 0.9])
        out = linear_crossover((f1, f2), 1.0)
        assert np.array_equal(out.values, f1.values)

    def test_midpoint(self):
        g = GridSpec(2, 2, 1, 1)
        out = linear_crossover((field(g, [1, 0, 0, 0]), field(g, [0, 1, 0, 0])), 0.5)
        np.testing.assert_allclose(out.values, [0.5, 0.5, 0, 0])

    def test_grid_mismatch(self):
        f1 = field(GridSpec(2, 2, 1, 1), np.zeros(4))
        f2 = field(GridSpec(2, 2, 2, 2), np.zeros(4))
        with pytest.raises(GridMismatch):
            linear_crossover((f1, f2), 0.5)

    @given(lam=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_convex_combination_bounds(self, lam, seed):
        r = np.random.default_rng(seed)
        g = GridSpec(3, 3, 1, 1)
        f1 = field(g, r.random(g.n))
        f2 = field(g, r.random(g.n))
        out = linear_crossover((f1, f2), lam)
        lo = np.minimum(f1.values, f2.values)
        hi = np.maximum(f1.values, f2.values)
        assert np.all(out.values >= lo - 1e-15)
        assert np.all(out.values <= hi + 1e-15)


def thresholded(fld, level=0.5):
    return fld.values >= level


def jaccard(a, b):
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    return inter / union if union else 1.0


class TestWassersteinCrossover:
    def test_identical_parents_reproduce_threshold_set(self):
        g = GridSpec(16, 16, 16.0, 16.0)
        blob = disk_field(g, 8.0, 8.0, 4.0)
        out = wasserstein_crossover((blob, blob), 0.5, epsilon=1.0, tau=1e-9)
        cx, cy = out.centroid()
        bx, by = blob.centroid()
        assert abs(cx - bx) < 1e-6 * g.lx
        assert abs(cy - by) < 1e-6 * g.lx
        assert np.array_equal(thresholded(out), thresholded(blob))

    def test_midpoint_blob_matches_lp_oracle_on_downsampling(self):
        g = GridSpec(32, 32, 32.0, 32.0)
        left = disk_field(g, 10.0, 16.0, 4.0)
        right = disk_field(g, 22.0, 16.0, 4.0)
        out = wasserstein_crossover((left, right), 0.5, epsilon=2.0, tau=1e-9)
        cx, cy = out.centroid()
        # oracle: exact LP barycenter on a 16x16 downsampling of the parents
        from wxtopo import resample, to_probability

        g16 = GridSpec(16, 16, 32.0, 32.0)
        pa = to_probability(resample(left, g16), floor=0.0).masses
        pb = to_probability(resample(right, g16), floor=0.0).masses
        lp_mass = lp_barycenter([pa, pb], [0.5, 0.5], squared_distance_matrix(g16))
        xs, ys = g16.cell_centers()
        lp_cx = np.average(xs, weights=lp_mass)
        lp_cy = np.average(ys, weights=lp_mass)
        assert abs(cx - lp_cx) <= 1.0 * g.hx
        assert abs(cy - lp_cy) <= 1.0 * g.hy
        mid = 0.5 * (np.array(left.centroid()) + np.array(right.centroid()))
        assert abs(cx - mid[0]) <= 1.0 * g.hx

    def test_lambda_one_keeps_parent_one(self):
        g = GridSpec(32, 32, 32.0, 32.0)
        left = disk_field(g, 10.0, 16.0, 4.0)
        right = disk_field(g, 22.0, 16.0, 4.0)
        out = wasserstein_crossover((left, right), 1.0, epsilon=2.0, tau=1e-9)
        cx, _ = out.centroid()
        assert abs(cx - left.centroid()[0]) <= 1.0 * g.hx

    def test_lambda_endpoints_jaccard(self):
        g = GridSpec(32, 32, 32.0, 32.0)
        left = gaussian_field(g, 10.0, 16.0, 3.0)
        right = gaussian_field(g, 22.0, 16.0, 3.0)
        cfg = CrossoverConfig(eps_min=1.0, eps_max=4.0, tau=1e-9)
        for lam, parent in ((1.0, left), (0.0, right)):
            out = wasserstein_crossover((left, right), lam, cfg.eps_min, cfg.tau)
            assert jaccard(thresholded(out), thresholded(parent)) >= 0.95

    def test_constant_field_error_propagates(self):
        # regularization so strong the kernel rounds to all-ones flattens the
        # barycenter exactly
        g = GridSpec(8, 8, 1.0, 1.0)
        flat = field(g, np.full(g.n, 0.5))
        with pytest.raises(ConstantField):
            wasserstein_crossover((flat, flat), 0.5, epsilon=1e20, tau=1e-9)

    def test_mass_transport_locality(self):
        # transported mass stays inside the dilated hull of parent supports;
        # the linear operator never leaves the union of supports
        from scipy.ndimage import binary_dilation
        from scipy.spatial import Delaunay

        g = GridSpec(32, 32, 32.0, 32.0)
        left = disk_field(g, 10.0, 16.0, 4.0)
        right = disk_field(g, 22.0, 16.0, 4.0)
        out = wasserstein_crossover((left, right), 0.5, epsilon=2.0, tau=1e-9)

        support = (left.values > 0) | (right.values > 0)
        xs, ys = g.cell_centers()
        pts = np.column_stack([xs[support], ys[support]])
        hull = Delaunay(pts)
        inside = hull.find_simplex(np.column_stack([xs, ys])) >= 0
        inside = binary_dilation(
            inside.reshape(g.ny, g.nx), iterations=2
        ).ravel()
        w_frac = out.values[inside].sum() / out.values.sum()
        assert w_frac >= 0.90

        lin = linear_crossover((left, right), 0.5)
        union = support
        lin_frac = lin.values[union].sum() / lin.values.sum()
        assert lin_frac >= 0.99


class TestGenerateOffspring:
    def make_pop(self, rng, n=4):
        g = GridSpec(12, 12, 12.0, 12.0)
        pop = []
        for k in range(n):
            blob = gaussian_field(g, 3.0 + 2.0 * k, 6.0, 1.5)
            pop.append(blob)
        return pop

    def cfg(self, seed=11):
        return CrossoverConfig(eps_min=0.5, eps_max=2.0, tau=1e-8, rng_seed=seed, max_iter=4000)

    def test_empty_request(self, rng):
        assert generate_offspring(self.make_pop(rng), 0, self.cfg()) == []

    def test_population_too_small(self, rng):
        with pytest.raises(PopulationTooSmall):
            generate_offspring(self.make_pop(rng)[:1], 2, self.cfg())

    def test_deterministic(self, rng):
        pop = self.make_pop(rng)
        kids1 = generate_offspring(pop, 3, self.cfg())
        kids2 = generate_offspring(pop, 3, self.cfg())
        assert len(kids1) == 3
        for a, b in zip(kids1, kids2):
            assert np.array_equal(a.values, b.values)

    def test_seed_changes_offspring(self, rng):
        pop = self.make_pop(rng)
        kids1 = generate_offspring(pop, 3, self.cfg(seed=1))
        kids2 = generate_offspring(pop, 3, self.cfg(seed=2))
        assert any(not np.array_equal(a.values, b.values) for a, b in zip(kids1, kids2))

    def test_identical_parent_pop_reproduces_threshold_set(self):
        g = GridSpec(16, 16, 16.0, 16.0)
        blob = disk_field(g, 8.0, 8.0, 4.0)
        kids = generate_offspring([blob, blob], 3, self.cfg())
        assert len(kids) == 3
        for kid in kids:
            assert np.array_equal(thresholded(kid), thresholded(blob))

    def test_offspring_are_valid_fields(self, rng):
        pop = self.make_pop(rng)
        for operator in ("wasserstein", "linear"):
            kids = generate_offspring(pop, 5, self.cfg(), operator=operator)
            assert len(kids) == 5
            for kid in kids:
                assert kid.values.shape == (pop[0].grid.n,)
                assert kid.values.min() >= 0.0 and kid.values.max() <= 1.0

    def test_constant_fallback_keeps_count(self):
        # over-regularized degenerate case: every barycenter collapses, the
        # linear fallback must still deliver the requested count
        g = GridSpec(8, 8, 1.0, 1.0)
        pop = [field(g, np.full(g.n, 0.4)), field(g, np.full(g.n, 0.4))]
        cfg = CrossoverConfig(eps_min=1e20, eps_max=1e20, tau=1e-8, rng_seed=11)
        kids = generate_offspring(pop, 3, cfg)
        assert len(kids) == 3
        for kid in kids:
            np.testing.assert_allclose(kid.values, 0.4)

    @pytest.mark.parametrize("constant", [False, True])
    def test_records_describe_each_child(self, rng, constant):
        if constant:
            g = GridSpec(8, 8, 1.0, 1.0)
            pop = [field(g, np.full(g.n, 0.4)), field(g, np.full(g.n, 0.4))]
            cfg = CrossoverConfig(eps_min=1e20, eps_max=1e20, tau=1e-8, rng_seed=11)
        else:
            pop, cfg = self.make_pop(rng), self.cfg()
        records = []
        kids = generate_offspring(pop, 4, cfg, record_sink=records)
        assert len(records) == len(kids) == 4
        for kid, rec in zip(kids, records):
            # a fallback slot ran two barycenters, a bred child one
            assert len(rec.reports) == (2 if constant else 1)
            i, j = rec.parents
            assert i != j and 0 <= min(i, j) and max(i, j) < len(pop)
            assert rec.linear_fallback == constant
            if constant:
                assert rec.epsilon == 1e20
                np.testing.assert_array_equal(
                    kid.values, linear_crossover((pop[i], pop[j]), rec.lam).values
                )
            else:
                assert cfg.eps_min <= rec.epsilon <= cfg.eps_max

    @pytest.mark.parametrize("constant", [False, True])
    def test_workers_do_not_change_offspring(self, rng, constant):
        if constant:
            # every barycenter collapses and each slot falls back to linear
            g = GridSpec(8, 8, 1.0, 1.0)
            pop = [field(g, np.full(g.n, 0.4)), field(g, np.full(g.n, 0.4))]
            cfg = CrossoverConfig(eps_min=1e20, eps_max=1e20, tau=1e-8, rng_seed=11)
        else:
            pop, cfg = self.make_pop(rng), self.cfg()
        runs = []
        for workers in (1, 2, 4):
            records = []
            kids = generate_offspring(pop, 5, cfg, stream=3, workers=workers, record_sink=records)
            sink = [rep for rec in records for rep in rec.reports]
            draws = [(r.parents, r.lam, r.epsilon, r.linear_fallback) for r in records]
            runs.append((kids, sink, draws))
        base_kids, base_sink, base_draws = runs[0]
        assert len(base_sink) == (10 if constant else 5)
        for kids, sink, draws in runs[1:]:
            assert len(kids) == 5 and draws == base_draws
            for a, b in zip(base_kids, kids):
                assert np.array_equal(a.values, b.values)
            assert [r.csv_row() for r in sink] == [r.csv_row() for r in base_sink]
            for a, b in zip(base_sink, sink):
                assert np.array_equal(a.value.masses, b.value.masses)
