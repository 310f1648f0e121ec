"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. The end-to-end run (criterion 7) is the slow one and
carries the ``slow`` marker; everything else finishes in seconds to a couple
of minutes.
"""

import csv
import time

import numpy as np
import pytest

import wxtopo as wx
from wxtopo.cli import main
from wxtopo.fem2d import pnorm_objective_grad
from wxtopo.ot import squared_distance_matrix
from wxtopo.topopt_lf import FilterKernel, density_filter

from conftest import cantilever_bc, gaussian_field, patch_bc


def _criterion(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_prob(grid, rng):
    m = rng.random(grid.n) + 0.05
    return wx.ProbabilityField(grid, m / m.sum())


def test_criterion_1_ot_oracle_equivalence(rng):
    grid = wx.GridSpec(8, 8, 8.0, 8.0)  # 64 support points
    cost = squared_distance_matrix(grid)
    eps = 1e-3 * cost.max()
    worst_rel = 0.0
    worst_time = 0.0
    for _ in range(20):
        a = random_prob(grid, rng)
        b = random_prob(grid, rng)
        t0 = time.perf_counter()
        rep = wx.sinkhorn_distance(a, b, eps, tau=1e-10, max_iter=200_000)
        lp_value, _ = wx.exact_ot_lp(a.masses, b.masses, cost)
        elapsed = time.perf_counter() - t0
        rel = abs(rep.value - lp_value) / lp_value
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
        if not rep.converged or rel > 0.03 or elapsed > 1.0:
            break
    ok = worst_rel <= 0.03 and worst_time < 1.0
    _criterion(1, "OT oracle equivalence", ok,
               f"worst rel gap {worst_rel:.4f}, slowest {worst_time:.2f}s")


def test_criterion_2_marginal_feasibility(rng):
    tau = 1e-9
    checked = 0
    worst = 0.0
    for k in range(100):
        nx, ny = (6, 6) if k % 2 else (8, 8)
        grid = wx.GridSpec(nx, ny, float(nx), float(ny))
        a = random_prob(grid, rng)
        b = random_prob(grid, rng)
        eps = 0.02 * squared_distance_matrix(grid).max()
        rep = wx.sinkhorn_distance(a, b, eps, tau=tau, max_iter=100_000)
        if not rep.converged:
            break
        worst = max(worst, rep.final_residual)
        checked += 1
    ok = checked == 100 and worst < tau
    _criterion(2, "marginal feasibility at convergence", ok,
               f"{checked}/100 converged, worst residual {worst:.2e} < {tau:g}")


def test_criterion_3_convolutional_correctness(rng):
    grid = wx.GridSpec(32, 32, 1.0, 1.0)
    agree = True
    worst = 0.0
    for eps in (1e-6, 1e-4, 1e-2):
        dense = wx.KernelApplier(grid, eps, "dense")
        conv = wx.KernelApplier(grid, eps, "convolutional")
        for _ in range(3):
            v = rng.random(grid.n) + 1e-9
            rd = dense.apply(v)
            rc = conv.apply(v)
            rel = float(np.max(np.abs(rd - rc) / np.abs(rd)))
            worst = max(worst, rel)
            agree &= rel < 1e-10

    big = wx.GridSpec(128, 128, 128.0, 128.0)
    blob_a = gaussian_field(big, 40.0, 64.0, 6.0)
    blob_b = gaussian_field(big, 88.0, 64.0, 6.0)
    pa = wx.ProbabilityField(big, blob_a.values / blob_a.values.sum())
    pb = wx.ProbabilityField(big, blob_b.values / blob_b.values.sum())
    sweeps = 25
    t0 = time.perf_counter()
    out_c, _ = wx.sinkhorn_barycenter([pa, pb], [0.5, 0.5], 16.0, tau=0.0,
                                      max_iter=sweeps, mode="convolutional")
    t_conv = time.perf_counter() - t0
    t0 = time.perf_counter()
    out_d, _ = wx.sinkhorn_barycenter([pa, pb], [0.5, 0.5], 16.0, tau=0.0,
                                      max_iter=sweeps, mode="dense")
    t_dense = time.perf_counter() - t0
    max_diff = float(np.max(np.abs(out_c.masses - out_d.masses)))
    speedup = t_dense / t_conv
    ok = agree and max_diff <= 1e-6 and speedup >= 10.0
    _criterion(3, "convolutional kernel correctness and speed", ok,
               f"worst rel {worst:.1e}, output diff {max_diff:.1e}, "
               f"dense {t_dense:.1f}s / conv {t_conv:.2f}s = {speedup:.0f}x")


def test_criterion_4_barycenter_geometry():
    grid = wx.GridSpec(64, 64, 64.0, 64.0)
    blob_a = gaussian_field(grid, 16.0, 32.0, 4.0)
    blob_b = gaussian_field(grid, 48.0, 32.0, 4.0)
    pa = wx.ProbabilityField(grid, blob_a.values / blob_a.values.sum())
    pb = wx.ProbabilityField(grid, blob_b.values / blob_b.values.sum())
    mid_x = 0.5 * (pa.centroid()[0] + pb.centroid()[0])

    out, rep = wx.sinkhorn_barycenter([pa, pb], [0.5, 0.5], 8.0, 1e-8, max_iter=20_000)
    cx, cy = out.centroid()
    mid_ok = rep.converged and abs(cx - mid_x) <= grid.hx and abs(cy - 32.0) <= grid.hy

    xs = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        o, _ = wx.sinkhorn_barycenter([pa, pb], [lam, 1 - lam], 8.0, 1e-8, max_iter=20_000)
        xs.append(o.centroid()[0])
    monotone = all(x1 > x2 for x1, x2 in zip(xs, xs[1:]))
    ok = mid_ok and monotone
    _criterion(4, "barycenter geometry on separated blobs", ok,
               f"midpoint offset {abs(cx - mid_x):.3f} cells (of {grid.hx:g}), "
               f"sweep x = {[round(x, 2) for x in xs]}")


def test_criterion_5_fem_verification(rng):
    t0 = time.perf_counter()
    grid = wx.GridSpec(8, 6, 1.0, 1.0)
    model = wx.ElasticModel(grid=grid, e0=3.0, thickness=2.0)
    solid = wx.DensityField(grid, np.ones(grid.n))
    u = wx.solve_displacement(model, solid, patch_bc(grid))
    sf = wx.von_mises(model, solid, u)
    sigma = 1.0 / model.thickness
    patch_err = float(np.max(np.abs(sf.sigma_vm - sigma)) / sigma)

    g2 = wx.GridSpec(24, 12, 2.0, 1.0)
    model2 = wx.ElasticModel(grid=g2)
    bc2 = cantilever_bc(g2)
    kern = FilterKernel(g2, 2.5 * g2.hx)
    x = rng.uniform(0.3, 0.9, g2.n)
    p_norm = 8.0

    def full(xv):
        filt = density_filter(kern, wx.DensityField(g2, xv))
        return pnorm_objective_grad(model2, filt, bc2, p_norm)[0]

    filt = density_filter(kern, wx.DensityField(g2, x))
    _, grad_f = pnorm_objective_grad(model2, filt, bc2, p_norm)
    grad = kern.chain(grad_f)
    h = 1e-6
    worst_fd = 0.0
    for e in rng.choice(g2.n, 10, replace=False):
        xp, xm = x.copy(), x.copy()
        xp[e] += h
        xm[e] -= h
        fd = (full(xp) - full(xm)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - grad[e]) / max(abs(fd), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = patch_err < 1e-8 and worst_fd < 1e-3 and elapsed < 30.0
    _criterion(5, "FEM patch test and adjoint gradient", ok,
               f"patch err {patch_err:.1e}, worst FD rel {worst_fd:.1e}, {elapsed:.1f}s")


def test_criterion_6_selection_and_hypervolume_oracles(rng):
    from test_evolve import brute_force_ranks

    sort_ok = True
    for _ in range(200):
        objs = [rng.random(2) for _ in range(50)]
        if wx.non_dominated_sort(objs) != brute_force_ranks(objs):
            sort_ok = False
            break

    unit = wx.hypervolume_2d([np.zeros(2)], np.ones(2))
    two = wx.hypervolume_2d([np.array([0.0, 0.5]), np.array([0.5, 0.0])], np.ones(2))
    fixed_ok = unit == 1.0 and abs(two - 0.75) < 1e-12

    pts = [rng.random(2) for _ in range(20)]
    ref = np.array([1.2, 1.2])
    exact = wx.hypervolume_2d(pts, ref)
    lo = np.min(pts, axis=0)
    box = float(np.prod(ref - lo))
    samples = lo + rng.random((1_000_000, 2)) * (ref - lo)
    hit = np.zeros(len(samples), dtype=bool)
    for p in pts:
        hit |= np.all(samples >= p, axis=1)
    mc = hit.mean() * box
    mc_rel = abs(exact - mc) / exact
    ok = sort_ok and fixed_ok and mc_rel < 0.005
    _criterion(6, "selection and hypervolume oracles", ok,
               f"sort exact on 200 sets: {sort_ok}, unit {unit}, two-point {two}, "
               f"MC rel {mc_rel:.4f}")


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Seed and evolve the desk-scale benchmark once, timed."""
    root = tmp_path_factory.mktemp("desk")
    seeds = root / "seeds"
    run = root / "run"
    t0 = time.perf_counter()
    assert main(["seed", "--preset", "desk", "--out", str(seeds),
                 "--workers", "8", "--seed-rng", "0"]) == 0
    assert main(["evolve", "--preset", "desk", "--seeds", str(seeds),
                 "--out", str(run), "--workers", "8", "--seed-rng", "0"]) == 0
    elapsed = time.perf_counter() - t0
    return seeds, run, elapsed


@pytest.mark.slow
def test_criterion_7_end_to_end_desk_run(desk_run):
    seeds, run, elapsed = desk_run
    with (seeds / "manifest.csv").open() as fh:
        manifest = list(csv.DictReader(fh))
    n_seeds = len(manifest)
    residual_ok = all(
        row["volume_residual"] != "" and float(row["volume_residual"]) <= 1e-3
        for row in manifest
    )
    with (run / "history.csv").open() as fh:
        history = list(csv.DictReader(fh))
    hv_norm = [float(r["hv_normalized"]) for r in history]
    monotone_ok = True
    for prev, cur in zip(history, history[1:]):
        if int(cur["front_union"]) <= 20 and float(cur["hv"]) < float(prev["hv"]) - 1e-12:
            monotone_ok = False
    ok = (
        n_seeds == 24
        and residual_ok
        and elapsed < 1800.0
        and len(history) == 16
        and hv_norm[-1] >= 1.05
        and monotone_ok
    )
    _criterion(7, "end-to-end desk run", ok,
               f"{n_seeds} seeds, residuals ok {residual_ok}, {elapsed:.0f}s, "
               f"{len(history)} generations, final normalized HV {hv_norm[-1]:.3f}, "
               f"HV monotone when front fits: {monotone_ok}")


def test_criterion_8_operator_distinguishability(tmp_path):
    from scipy.ndimage import binary_dilation
    from scipy.spatial import Delaunay

    grid = wx.GridSpec(32, 32, 32.0, 32.0)
    from conftest import disk_field

    left = disk_field(grid, 10.0, 16.0, 4.0)
    right = disk_field(grid, 22.0, 16.0, 4.0)
    w_child = wx.wasserstein_crossover((left, right), 0.5, epsilon=2.0, tau=1e-9)
    support = (left.values > 0) | (right.values > 0)
    xs, ys = grid.cell_centers()
    hull = Delaunay(np.column_stack([xs[support], ys[support]]))
    inside = hull.find_simplex(np.column_stack([xs, ys])) >= 0
    inside = binary_dilation(inside.reshape(grid.ny, grid.nx), iterations=2).ravel()
    w_frac = float(w_child.values[inside].sum() / w_child.values.sum())

    l_child = wx.linear_crossover((left, right), 0.5)
    l_frac = float(l_child.values[support].sum() / l_child.values.sum())

    # A/B harness: same seeds, both operators, two history artifacts
    cfg = tmp_path / "ab.cfg"
    cfg.write_text(
        "grid.nx = 12\ngrid.ny = 24\nlf.n_s1 = 1\nlf.n_s2 = 2\n"
        "lf.max_iter = 20\nlf.v_min = 0.45\nhf.r_h = 0.04\n"
        "xo.eps_min = 5e-3\nxo.eps_max = 5e-2\nxo.tau = 1e-5\nxo.max_iter = 300\n"
        "evolve.n_pop = 4\nevolve.n_xo = 4\nevolve.t_max = 1\n"
    )
    seeds = tmp_path / "seeds"
    assert main(["seed", "--config", str(cfg), "--out", str(seeds)]) == 0
    histories = []
    for op in ("wasserstein", "linear"):
        out = tmp_path / f"run_{op}"
        assert main(["evolve", "--config", str(cfg), "--seeds", str(seeds),
                     "--out", str(out), "--operator", op]) == 0
        histories.append((out / "history.csv").exists())
    ok = w_frac >= 0.90 and l_frac >= 0.99 and all(histories)
    _criterion(8, "operator distinguishability", ok,
               f"hull mass {w_frac:.3f} >= 0.90, union mass {l_frac:.4f} >= 0.99, "
               f"A/B histories emitted: {all(histories)}")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "grid.nx = 12\ngrid.ny = 24\nlf.n_s1 = 1\nlf.n_s2 = 2\n"
        "lf.max_iter = 20\nlf.v_min = 0.45\nhf.r_h = 0.04\n"
        "xo.eps_min = 5e-3\nxo.eps_max = 5e-2\nxo.tau = 1e-5\nxo.max_iter = 300\n"
        "evolve.n_pop = 4\nevolve.n_xo = 4\nevolve.t_max = 2\n"
    )
    digests = []
    for tag in ("first", "second"):
        seeds = tmp_path / f"seeds_{tag}"
        run = tmp_path / f"run_{tag}"
        assert main(["seed", "--config", str(cfg), "--out", str(seeds),
                     "--seed-rng", "3", "--workers", "2"]) == 0
        assert main(["evolve", "--config", str(cfg), "--seeds", str(seeds),
                     "--out", str(run), "--seed-rng", "3", "--workers", "2"]) == 0
        blob = [(run / "history.csv").read_bytes()]
        for p in sorted(run.rglob("*.dfld")) + sorted(seeds.rglob("*.dfld")):
            blob.append(p.relative_to(tmp_path / f"run_{tag}").as_posix().encode()
                        if p.is_relative_to(run) else p.name.encode())
            blob.append(p.read_bytes())
        digests.append(b"".join(blob))
    ok = digests[0] == digests[1]
    _criterion(9, "byte-identical reruns", ok,
               f"history.csv and {len(list((tmp_path / 'run_first').rglob('*.dfld')))} "
               f"field files identical: {ok}")
