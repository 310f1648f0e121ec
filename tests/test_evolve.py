import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxtopo import (
    CrossoverConfig,
    DensityField,
    EvolveConfig,
    GridSpec,
    check_convergence,
    crowding_truncate,
    evolve_loop,
    hypervolume_2d,
    non_dominated_sort,
)
from wxtopo.errors import ExtinctPopulation
from wxtopo.evolve import Member, _select, crowding_distance, dominates, reference_point
from wxtopo.hf_eval import Objectives


def brute_force_ranks(objs):
    """Peel nondominated layers by direct pairwise scanning."""
    objs = [np.asarray(o) for o in objs]
    remaining = set(range(len(objs)))
    ranks = [None] * len(objs)
    rank = 0
    while remaining:
        layer = [
            p
            for p in remaining
            if not any(dominates(objs[q], objs[p]) for q in remaining if q != p)
        ]
        for p in layer:
            ranks[p] = rank
        remaining -= set(layer)
        rank += 1
    return ranks


def brute_force_crowding(front):
    mat = np.asarray(front, dtype=float)
    n = len(front)
    dist = np.zeros(n)
    for m in range(mat.shape[1]):
        order = np.argsort(mat[:, m], kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = mat[order[-1], m] - mat[order[0], m]
        if span == 0:
            continue
        for k in range(1, n - 1):
            if not np.isinf(dist[order[k]]):
                dist[order[k]] += (mat[order[k + 1], m] - mat[order[k - 1], m]) / span
    return dist


class TestNonDominatedSort:
    def test_mutual_nondominance(self):
        assert non_dominated_sort([np.array([1, 2]), np.array([2, 1])]) == [0, 0]

    def test_strict_dominance(self):
        assert non_dominated_sort([np.array([1, 1]), np.array([2, 2])]) == [0, 1]

    def test_matches_brute_force_on_random_sets(self, rng):
        sets = [[rng.random(2) for _ in range(50)] for _ in range(10)]
        # small integer ranges: many ties and exact duplicates, plus n = 0 and 1
        for n_obj in (2, 3):
            sets += [list(rng.integers(0, 4, size=(n, n_obj))) for n in (0, 1, 2, 7, 30, 60)]
        for objs in sets:
            assert non_dominated_sort(objs) == brute_force_ranks(objs)

    def test_duplicates_share_rank(self):
        objs = [np.array([1.0, 1.0])] * 3 + [np.array([2.0, 0.5])]
        assert non_dominated_sort(objs) == [0, 0, 0, 0]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            non_dominated_sort([np.array([np.inf, 1.0]), np.array([0.0, 0.0])])


class TestCrowdingTruncate:
    def test_keep_all(self):
        front = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        assert crowding_truncate(front, 2) == [0, 1]

    def test_collinear_keeps_extremes(self):
        front = [np.array([0.0, 2.0]), np.array([1.0, 1.0]), np.array([2.0, 0.0])]
        assert crowding_truncate(front, 2) == [0, 2]

    def test_matches_brute_force(self, rng):
        for _ in range(10):
            xs = np.sort(rng.random(20))
            front = [np.array([x, 1.0 - x]) for x in xs]
            dist = brute_force_crowding(front)
            expected = sorted(
                sorted(range(20), key=lambda i: (-dist[i], i))[:10]
            )
            assert crowding_truncate(front, 10) == expected

    def test_repeated_point_loses_to_a_distinct_one(self):
        # a child whose HF design matched its parent's: the parent, the
        # child and a third point form the front, and two survive
        parent, other = np.array([33.248, 0.5662]), np.array([32.429, 0.6129])
        front = [parent, parent.copy(), other]
        assert crowding_truncate(front, 2) == [0, 2]
        d = crowding_distance(front)
        assert np.isinf(d[0]) and d[1] == 0 and np.isinf(d[2])

    def test_repeats_do_not_move_distinct_distances(self, rng):
        xs = np.sort(rng.random(12))
        front = [np.array([x, 1.0 - x]) for x in xs]
        repeated = front + [front[3].copy(), front[7].copy(), front[3].copy()]
        d = crowding_distance(repeated)
        assert np.array_equal(d[:12], brute_force_crowding(front))
        assert np.all(d[12:] == 0)

    def test_distance_extremes_infinite(self):
        front = [np.array([0.0, 3.0]), np.array([1.0, 1.0]), np.array([3.0, 0.0])]
        d = crowding_distance(front)
        assert np.isinf(d[0]) and np.isinf(d[2]) and np.isfinite(d[1])


class TestHypervolume:
    def test_unit_box(self):
        assert hypervolume_2d([np.zeros(2)], np.ones(2)) == 1.0

    def test_two_point_inclusion_exclusion(self):
        pts = [np.array([0.0, 0.5]), np.array([0.5, 0.0])]
        assert hypervolume_2d(pts, np.ones(2)) == pytest.approx(0.75)

    def test_dominated_point_is_free(self, rng):
        pts = [np.array([0.1, 0.4]), np.array([0.4, 0.1])]
        ref = np.ones(2)
        base = hypervolume_2d(pts, ref)
        assert hypervolume_2d(pts + [np.array([0.5, 0.5])], ref) == base

    def test_points_beyond_ref_drop(self):
        pts = [np.array([0.2, 0.2]), np.array([1.5, 0.0]), np.array([0.0, 2.0])]
        assert hypervolume_2d(pts, np.ones(2)) == pytest.approx(0.64)

    def test_against_monte_carlo(self, rng):
        for _ in range(3):
            pts = [rng.random(2) for _ in range(20)]
            ref = np.array([1.2, 1.2])
            exact = hypervolume_2d(pts, ref)
            lo = np.min(pts, axis=0)
            box = (ref[0] - lo[0]) * (ref[1] - lo[1])
            samples = lo + rng.random((200_000, 2)) * (ref - lo)
            mat = np.array(pts)
            hit = np.zeros(len(samples), dtype=bool)
            for p in mat:
                hit |= np.all(samples >= p, axis=1)
            mc = hit.mean() * box
            assert abs(exact - mc) / exact < 0.005

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_monotone_under_point_addition(self, seed):
        r = np.random.default_rng(seed)
        pts = [r.random(2) for _ in range(5)]
        ref = np.array([1.1, 1.1])
        base = hypervolume_2d(pts, ref)
        more = hypervolume_2d(pts + [r.random(2)], ref)
        assert more >= base - 1e-12


class TestSelectFrontSize:
    @given(seed=st.integers(0, 2**31), capacity=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_capped_union_front_equals_survivor_front(self, seed, capacity):
        # coarse integer objectives give ties, duplicates and several ranks
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 20))
        members = [
            Member(None, Objectives(r.integers(0, 5, 2).astype(float), True), 0, k)
            for k in range(n)
        ]
        survivors, union_front = _select(members, capacity)
        ranks = non_dominated_sort([m.objectives.j for m in survivors])
        assert min(union_front, capacity) == sum(1 for x in ranks if x == 0)


class TestReferencePoint:
    def test_ten_percent_worsening(self):
        objs = [np.array([1.0, 10.0]), np.array([3.0, 4.0])]
        ref = reference_point(objs)
        np.testing.assert_allclose(ref, [3.2, 10.6])

    def test_degenerate_range_padded(self):
        ref = reference_point([np.array([2.0, 0.0]), np.array([2.0, 0.0])])
        assert ref[0] > 2.0 and ref[1] > 0.0


class TestCheckConvergence:
    def cfg(self, **kw):
        defaults = dict(n_pop=4, n_xo=4, t_max=100, hv_rel_tol=1e-3, hv_window=5)
        defaults.update(kw)
        return EvolveConfig(**defaults)

    def test_short_history(self):
        assert not check_convergence([1.0, 1.1], self.cfg())

    def test_budget_exhausted(self):
        assert check_convergence([1.0, 1.1], self.cfg(t_max=1))

    def test_flat_window_converges(self):
        assert check_convergence([2.0] * 5, self.cfg())

    def test_growth_above_tolerance(self):
        history = [1.0 * 1.02**k for k in range(8)]
        assert not check_convergence(history, self.cfg())


def make_seeds(n, grid, rng):
    return [DensityField(grid, rng.random(grid.n)) for _ in range(n)]


def analytic_evaluator(target, min_mean=0.05):
    """Cheap two-objective stand-in: material use vs misfit to a target."""

    def evaluate(field):
        mean = float(field.values.mean())
        misfit = float(np.mean((field.values - target) ** 2))
        return Objectives(np.array([mean, misfit]), mean >= min_mean)

    return evaluate


def loop_config(seed=0, **kw):
    defaults = dict(
        n_pop=8,
        n_xo=8,
        t_max=5,
        hv_rel_tol=0.0,
        hv_window=3,
        crossover=CrossoverConfig(eps_min=1e-2, eps_max=1e-1, tau=1e-6, rng_seed=seed),
    )
    defaults.update(kw)
    return EvolveConfig(**defaults)


class TestEvolveLoop:
    def setup_method(self):
        self.grid = GridSpec(6, 4, 1.0, 1.0)
        r = np.random.default_rng(42)
        self.target = r.random(self.grid.n)
        self.seeds = make_seeds(6, self.grid, r)
        self.evaluate = analytic_evaluator(self.target)

    def test_zero_budget_returns_initial_selection(self):
        pop, history = evolve_loop(
            loop_config(t_max=0), self.seeds, self.evaluate, "linear"
        )
        assert len(history) == 1
        assert history[0].generation == 0
        assert 0 < len(pop.members) <= 8

    def test_deterministic(self, tmp_path):
        out1 = evolve_loop(loop_config(), self.seeds, self.evaluate, "linear")
        out2 = evolve_loop(loop_config(), self.seeds, self.evaluate, "linear")
        ids1 = [m.id for m in out1[0].members]
        ids2 = [m.id for m in out2[0].members]
        assert ids1 == ids2
        assert [s.hv for s in out1[1]] == [s.hv for s in out2[1]]

    def test_offspring_count_and_growth(self):
        pop, history = evolve_loop(loop_config(), self.seeds, self.evaluate, "linear")
        assert len(history) == 6  # generations 0..5
        for stats in history[1:]:
            assert stats.n_feasible <= 8  # exactly n_xo evaluated, minus infeasible
        assert all(m.objectives.feasible for m in pop.members)

    def test_hv_non_decreasing_when_front_fits(self):
        pop, history = evolve_loop(
            loop_config(n_pop=40, n_xo=8), self.seeds, self.evaluate, "linear"
        )
        for prev, cur in zip(history, history[1:]):
            if cur.front_union <= 40:
                assert cur.hv >= prev.hv - 1e-12

    def test_truncation_dip_does_not_stop_loop(self):
        # generation 0 keeps a knee (2, 2.1), (2.1, 2); generation 1 adds two
        # spread-out points, and crowding truncation of the six-point front
        # drops the knee, so the population HV falls from 84.99 to 69. The
        # archive HV does not, so with hv_rel_tol = 0 the loop runs to t_max.
        script = [(0, 10), (2, 2.1), (2.1, 2), (10, 0), (0.5, 7), (7, 0.5)]
        calls = []

        def scripted(field):
            j = script[len(calls)] if len(calls) < len(script) else (10.5, 10.5)
            calls.append(j)
            return Objectives(np.array(j, dtype=float), True)

        cfg = loop_config(n_pop=4, n_xo=2, t_max=3, hv_window=2)
        seeds = make_seeds(4, self.grid, np.random.default_rng(3))
        _, history = evolve_loop(cfg, seeds, scripted, "linear")
        assert history[1].hv < history[0].hv
        assert len(history) == 4

    def test_extinct_population(self):
        def nothing_survives(field):
            return Objectives(np.array([1.0, 1.0]), False)

        with pytest.raises(ExtinctPopulation):
            evolve_loop(loop_config(), self.seeds, nothing_survives, "linear")

    def test_selection_never_keeps_dominated_over_dominating(self, tmp_path):
        run = tmp_path / "run"
        evolve_loop(
            loop_config(), self.seeds, self.evaluate, "linear", run_dir=run
        )
        evals = {}
        with (run / "evals.csv").open() as fh:
            for row in csv.DictReader(fh):
                if int(row["feasible"]):
                    evals[int(row["candidate_id"])] = (
                        int(row["generation"]),
                        np.array([float(row["J1"]), float(row["J2"])]),
                    )
        gen_dirs = sorted((run / "checkpoints").glob("gen_*"))
        prev_selected: set[int] = set()
        for t, gdir in enumerate(gen_dirs):
            with (gdir / "objectives.csv").open() as fh:
                selected = {int(row["candidate_id"]) for row in csv.DictReader(fh)}
            union = prev_selected | {
                cid for cid, (gen, _) in evals.items() if gen == t
            }
            discarded = union - selected
            for d in discarded:
                for s in selected:
                    assert not dominates(evals[d][1], evals[s][1])
            # full rank-0 front retained whenever it fits
            objs = {cid: evals[cid][1] for cid in union}
            ids = sorted(objs)
            ranks = brute_force_ranks([objs[i] for i in ids])
            front = {i for i, r in zip(ids, ranks) if r == 0}
            if len(front) <= 8:
                assert front <= selected
            prev_selected = selected

    def test_run_dir_artifacts(self, tmp_path):
        run = tmp_path / "run"
        evolve_loop(loop_config(t_max=2), self.seeds, self.evaluate, "linear", run_dir=run)
        history = (run / "history.csv").read_text().splitlines()
        assert history[0] == "generation,hv,hv_normalized,front_size,front_union,n_feasible"
        assert len(history) == 4
        assert (run / "timings.csv").exists()
        assert (run / "evals.csv").exists()
        assert sorted(p.name for p in (run / "checkpoints").iterdir()) == [
            "gen_0000",
            "gen_0001",
            "gen_0002",
        ]
        gen0 = run / "checkpoints" / "gen_0000"
        assert (gen0 / "objectives.csv").exists()
        assert len(list(gen0.glob("member_*.dfld"))) > 0
        # exactly n_xo offspring evaluated every generation after the first
        per_gen = {}
        with (run / "evals.csv").open() as fh:
            for row in csv.DictReader(fh):
                per_gen[int(row["generation"])] = per_gen.get(int(row["generation"]), 0) + 1
        assert per_gen == {0: 6, 1: 8, 2: 8}

    def test_duplicate_fields_collapse(self):
        dup_seeds = [self.seeds[0], self.seeds[0], self.seeds[1]]
        pop, history = evolve_loop(
            loop_config(t_max=0), dup_seeds, self.evaluate, "linear"
        )
        keys = {m.field.values.tobytes() for m in pop.members}
        assert len(keys) == len(pop.members) == 2

    def test_workers_do_not_change_results(self):
        a = evolve_loop(loop_config(), self.seeds, self.evaluate, "linear", workers=1)
        b = evolve_loop(loop_config(), self.seeds, self.evaluate, "linear", workers=4)
        assert [m.id for m in a[0].members] == [m.id for m in b[0].members]
        assert [s.hv for s in a[1]] == [s.hv for s in b[1]]

    def test_front_size_equals_sorted_survivors(self, tmp_path):
        run = tmp_path / "run"
        _, history = evolve_loop(
            loop_config(n_pop=3, t_max=4), self.seeds, self.evaluate, "linear", run_dir=run
        )
        assert any(s.front_union > 3 for s in history)  # rank 0 overflows
        for s in history:
            with (run / "checkpoints" / f"gen_{s.generation:04d}" / "objectives.csv").open() as fh:
                objs = [np.array([float(r["J1"]), float(r["J2"])]) for r in csv.DictReader(fh)]
            assert s.front_size == sum(1 for r in non_dominated_sort(objs) if r == 0)

    def test_wasserstein_workers_do_not_change_run_dir(self, tmp_path):
        cfg = loop_config(
            t_max=2,
            crossover=CrossoverConfig(eps_min=1e-2, eps_max=1e-1, tau=1e-6, max_iter=300),
        )
        for workers in (1, 2):
            evolve_loop(cfg, self.seeds, self.evaluate, "wasserstein",
                        workers=workers, run_dir=tmp_path / f"w{workers}")
        one, two = tmp_path / "w1", tmp_path / "w2"
        assert (one / "history.csv").read_bytes() == (two / "history.csv").read_bytes()
        files = sorted(p.relative_to(one) for p in (one / "checkpoints").rglob("*") if p.is_file())
        assert files == sorted(
            p.relative_to(two) for p in (two / "checkpoints").rglob("*") if p.is_file()
        )
        assert any(f.suffix == ".dfld" and "gen_0002" in str(f) for f in files)
        for f in files:
            assert (one / f).read_bytes() == (two / f).read_bytes()

        def j_columns(run):
            with (run / "evals.csv").open() as fh:
                return [(r["generation"], r["candidate_id"], r["J1"], r["J2"], r["feasible"])
                        for r in csv.DictReader(fh)]

        assert j_columns(one) == j_columns(two)

    def test_offspring_csv(self, tmp_path):
        cfg = loop_config(
            t_max=2,
            crossover=CrossoverConfig(eps_min=1e-2, eps_max=1e-1, tau=1e-6, max_iter=300),
        )
        for workers in (1, 2):
            evolve_loop(cfg, self.seeds, self.evaluate, "wasserstein",
                        workers=workers, run_dir=tmp_path / f"w{workers}")
        one, two = tmp_path / "w1", tmp_path / "w2"
        assert (one / "offspring.csv").read_bytes() == (two / "offspring.csv").read_bytes()
        with (one / "offspring.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "generation", "candidate_id", "parent_a", "parent_b", "lambda", "epsilon",
            "sweeps", "residual", "converged", "restarts", "linear_fallback",
        ]
        assert [int(r["generation"]) for r in rows] == [1] * 8 + [2] * 8
        with (one / "evals.csv").open() as fh:
            born = [(r["generation"], r["candidate_id"]) for r in csv.DictReader(fh)
                    if r["generation"] != "0"]
        assert [(r["generation"], r["candidate_id"]) for r in rows] == born
        for r in rows:
            gen = int(r["generation"])
            parents_dir = one / "checkpoints" / f"gen_{gen - 1:04d}"
            with (parents_dir / "objectives.csv").open() as fh:
                parents = {row["candidate_id"] for row in csv.DictReader(fh)}
            assert {r["parent_a"], r["parent_b"]} <= parents
            assert r["parent_a"] != r["parent_b"]
            assert 0.0 <= float(r["lambda"]) <= 1.0
            assert 1e-2 <= float(r["epsilon"]) <= 1e-1
            assert 1 <= int(r["sweeps"]) <= 300
            assert r["converged"] == "1" or r["sweeps"] == "300"
            assert np.isfinite(float(r["residual"]))
            assert int(r["restarts"]) >= 0
            assert r["linear_fallback"] == "0"

    def test_offspring_csv_linear_operator(self, tmp_path):
        run = tmp_path / "run"
        evolve_loop(loop_config(t_max=1), self.seeds, self.evaluate, "linear", run_dir=run)
        rows = (run / "offspring.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        for row in rows:
            gen, _cid, _a, _b, lam, eps, sweeps, residual, converged, restarts, fallback = (
                row.split(",")
            )
            assert gen == "1" and 0.0 <= float(lam) <= 1.0
            assert (eps, sweeps, residual, converged, restarts, fallback) == (
                "", "", "", "", "", "0"
            )

    def test_crash_keeps_finished_generations(self, tmp_path):
        full = tmp_path / "full"
        evolve_loop(loop_config(t_max=2), self.seeds, self.evaluate, "linear", run_dir=full)
        calls = []

        def crash_in_generation_one(fld):
            calls.append(fld)
            if len(calls) > len(self.seeds):
                raise RuntimeError("evaluator crashed")
            return self.evaluate(fld)

        crashed = tmp_path / "crashed"
        with pytest.raises(RuntimeError, match="evaluator crashed"):
            evolve_loop(loop_config(t_max=2), self.seeds, crash_in_generation_one,
                        "linear", run_dir=crashed)
        history = (crashed / "history.csv").read_text().splitlines()
        assert history == (full / "history.csv").read_text().splitlines()[:2]
        timings = (crashed / "timings.csv").read_text().splitlines()
        assert timings[0] == "generation,eval_seconds,crossover_seconds,selection_seconds"
        assert [row.split(",")[0] for row in timings[1:]] == ["0"]
        assert float(timings[1].split(",")[2]) > 0.0  # generation 0 bred offspring

    def test_needs_two_seeds(self):
        with pytest.raises(ExtinctPopulation):
            evolve_loop(loop_config(), self.seeds[:1], self.evaluate, "linear")
