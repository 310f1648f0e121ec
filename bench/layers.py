"""Per-layer metrics of a traced run, reduced from its spans and unit outputs.

A timing or per-call count is reported as three metrics: ``<name>.p50``,
``<name>.tail`` (the highest of p90/p99/p99.9 with at least ten samples beyond
it, or the maximum when there are fewer than 100 samples) and ``<name>.n``.
Metrics marked COMPUTED are derived from problem sizes by a fixed formula, or
read off the factor the program built; they repeat exactly for the same
inputs, so later changes can rest count claims on them.

Which end-to-end metric each layer should move, and where:

* ``ot.*`` and ``xo.*`` (Sinkhorn barycenter, crossover): ``wall_s`` on
  evolve-paper2d most, on evolve-desk less, on seed-desk not at all. Linear
  fallbacks also feed ``fail_frac``.
* ``fem.*`` (factorization of the elastic system): ``wall_s`` on all three
  workloads, most at 200x400, and ``peak_rss_mb`` through the factor's fill.
* ``hf.*`` (smooth, binarize, solve, stress): ``wall_s`` on the evolve
  workloads, and ``fail_frac`` through infeasible candidates.
* ``lf.*`` (P-norm gradient, MMA, density filter): ``wall_s`` on seed-desk and
  ``setup_s`` on the evolve workloads, where the parents' sweep runs.
* ``evolve.*``, ``sel.*``, ``io.*`` (the loop's phases, selection, run-directory
  writes): ``wall_s`` on evolve-desk only, and by a small share.
* ``pool.*``: ``wall_s`` on seed-desk and in the evaluation phase of the evolve
  workloads.

Only the timed section counts, except ``lf.*``, which also covers set-up.
"""

from __future__ import annotations

import statistics

from tracing import distribution, self_seconds

COMPUTED = ("ot.gflop", "ot.mb_per_sweep", "fem.factor_nnz", "fem.ndof")

# span-name prefix -> layer, for self time
LAYERS = {"ot": "ot", "xo": "crossover", "fem": "fem2d", "hf": "hf_eval", "lf": "topopt_lf",
          "sel": "evolve", "io": "evolve", "pool": "_pool"}


def sinkhorn_sweep_cost(nx: int, ny: int, inputs: int) -> tuple[float, float]:
    """(flops, bytes) of one barycenter sweep with the separable kernel (COMPUTED).

    Each input applies K twice per sweep; one apply is ``Ky @ X @ Kx``, i.e.
    2n(nx + ny) flops, reading both axis factors and X and writing two n-arrays.
    The element-wise updates (division, flooring, the weighted geometric mean
    over all inputs, the marginal spread) add about (3k + 6) n flops and n-array
    reads or writes per input.
    """
    n = nx * ny
    k = inputs
    flops = 2 * k * 2 * n * (nx + ny) + k * (3 * k + 6) * n
    nbytes = 2 * k * 8 * (nx * nx + ny * ny + 4 * n) + k * (3 * k + 6) * 8 * n
    return float(flops), float(nbytes)


def sinkhorn_working_set(nx: int, ny: int, inputs: int) -> int:
    """Bytes a barycenter touches every sweep: both axis factors and 4k + 2 n-arrays."""
    n = nx * ny
    return 8 * (nx * nx + ny * ny + (4 * inputs + 2) * n)


def stiffness_bytes(nx: int, ny: int) -> int:
    """CSC storage of the assembled Q4 stiffness matrix on an nx-by-ny cell grid."""
    node_pairs = (3 * (nx + 1) - 2) * (3 * (ny + 1) - 2)
    nnz = 4 * node_pairs
    ndof = 2 * (nx + 1) * (ny + 1)
    return 12 * nnz + 4 * (ndof + 1)


def working_sets(lf_cfg, eval_cfg=None) -> dict[str, int]:
    """Bytes each kernel touches per call, computed from the grid sizes (COMPUTED)."""
    lf_grid = lf_cfg.grid()
    out = {
        "lf.stiffness_bytes": stiffness_bytes(lf_grid.nx, lf_grid.ny),
        "lf.mma_bytes": 8 * 25 * lf_grid.n,  # about 25 n-arrays live in one MMA step
    }
    if eval_cfg is not None:
        grid = eval_cfg.grid()
        hf_grid = eval_cfg.hf().refined(grid)
        out["ot.sweep_bytes"] = sinkhorn_working_set(grid.nx, grid.ny, 2)
        out["hf.stiffness_bytes"] = stiffness_bytes(hf_grid.nx, hf_grid.ny)
        out["hf.smooth_matrix_bytes"] = 12 * 5 * grid.n  # five-point operator, CSC
    return out


def reduce(spans, units, workload, overhead_s: float) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}

    def dist(name, values, unit):
        p50, tail, n = distribution(list(values))
        out[f"{name}.p50"] = (p50, unit)
        out[f"{name}.tail"] = (tail, unit)
        out[f"{name}.n"] = (n, "count")

    by_id = {s.id: s for s in spans}
    timed = [s for s in spans if s.phase == "timed"]

    def named(name, pool=timed):
        return [s for s in pool if s.name == name]

    def children(parent, name):
        return [s for s in spans if s.parent == parent.id and s.name == name]

    # ot
    bary = named("ot.barycenter")
    dist("ot.barycenter_ms", (s.seconds * 1e3 for s in bary), "ms")
    dist("ot.iterations", (s.attrs["iterations"] for s in bary), "count")
    dist("ot.residual", (s.attrs["residual"] for s in bary), "ratio")
    out["ot.converged_frac"] = (
        sum(s.attrs["converged"] for s in bary) / len(bary) if bary else 0.0, "ratio")
    dist("ot.ms_per_sweep", (s.seconds * 1e3 / s.attrs["iterations"] for s in bary), "ms")
    costs = [sinkhorn_sweep_cost(s.attrs["nx"], s.attrs["ny"], s.attrs["inputs"]) for s in bary]
    dist("ot.gflop", (s.attrs["iterations"] * c[0] / 1e9 for s, c in zip(bary, costs)), "GFLOP")
    out["ot.mb_per_sweep"] = (
        statistics.median(c[1] for c in costs) / 1e6 if costs else 0.0, "MB")

    # crossover
    generate = named("xo.generate")
    fallbacks = len(named("xo.linear"))
    children_made = workload.n_xo * len(generate)
    dist("xo.child_ms", (s.seconds * 1e3 for s in named("xo.child")), "ms")
    dist("xo.generate_s", (s.seconds for s in generate), "s")
    dist("xo.pairwise_ms", (s.seconds * 1e3 for s in named("xo.pairwise")), "ms")
    out["xo.linear_fallbacks"] = (fallbacks, "count")
    out["xo.children"] = (children_made, "count")

    # fem2d: factorizations of the elastic system (the smoother's own factor is excluded)
    factors = [s for s in named("fem.factor")
               if s.parent is None or by_id[s.parent].name != "hf.smooth"]
    dist("fem.factor_ms", (s.seconds * 1e3 for s in factors), "ms")
    dist("fem.factor_nnz", (s.attrs.get("nnz", 0) for s in factors if not s.error), "count")
    ndofs = [s.attrs["ndof"] for s in factors if not s.error]
    out["fem.ndof"] = (statistics.median(ndofs) if ndofs else 0, "count")
    out["fem.solves"] = (len(factors), "count")

    # hf_eval
    evals = named("hf.eval")
    for part in ("smooth", "binarize", "solve", "stress"):
        dist(f"hf.{part}_ms",
             (sum(c.seconds for c in children(e, f"hf.{part}")) * 1e3 for e in evals), "ms")
    dist("hf.eval_ms", (s.seconds * 1e3 for s in evals), "ms")
    infeasible = sum(1 for s in evals if not s.attrs.get("feasible", False))
    out["hf.evals"] = (len(evals), "count")
    out["hf.infeasible"] = (infeasible, "count")
    out["hf.residual_rejects"] = (
        sum(1 for s in named("hf.solve") if s.error and "relative residual" in s.error), "count")
    out["hf.empty_solid"] = (
        sum(1 for s in named("hf.stress") if s.error and s.error.startswith("EmptySolidSet")),
        "count")

    # topopt_lf: LF runs wherever they happen (timed for seed-desk, set-up for evolve)
    runs = named("lf.run", spans)
    iters = []
    for run in runs:
        starts = sorted(c.start for c in children(run, "lf.grad"))
        iters += [b - a for a, b in zip(starts, starts[1:])]
        if starts:
            iters.append(run.end - starts[-1])
    dist("lf.iter_ms", (t * 1e3 for t in iters), "ms")
    for part in ("grad", "mma", "filter"):
        dist(f"lf.{part}_ms", (s.seconds * 1e3 for s in named(f"lf.{part}", spans)), "ms")
    out["lf.runs"] = (len(runs), "count")
    out["lf.non_improving"] = (sum(1 for s in runs if s.attrs.get("non_improving")), "count")
    out["lf.errors"] = (sum(1 for s in runs if s.error), "count")

    # evolve: the loop's own per-generation timings, then selection and I/O spans
    history = [g for u in units for g in (u.history or [])]
    dist("evolve.eval_s", (g.eval_seconds for g in history), "s")
    dist("evolve.crossover_s",
         (g.crossover_seconds for u in units for g in (u.history or [])[:-1]), "s")
    dist("evolve.selection_s", (g.selection_seconds for g in history), "s")
    for name in ("sel.sort", "sel.hv", "sel.truncate", "io.write"):
        dist(f"{name}_ms", (s.seconds * 1e3 for s in named(name)), "ms")
    gens = sum(len(u.history) for u in units if u.history)
    out["io.bytes_per_gen"] = (
        sum(u.run_bytes for u in units) / gens if gens else 0.0, "B")

    # _pool: summed item time over (workers in use x map wall time)
    effs = []
    for m in named("pool.map"):
        items = children(m, "pool.item")
        used = max(1, min(m.attrs["workers"], len(items)))
        if items and m.seconds > 0:
            effs.append(sum(i.seconds for i in items) / (used * m.seconds))
    dist("pool.efficiency", effs, "ratio")

    # failures over attempts in the timed section, each cause with its base above
    timed_runs = named("lf.run")
    lf_errors = sum(1 for s in timed_runs if s.error)
    attempted = len(timed_runs) + len(evals) + children_made
    failed = lf_errors + infeasible + fallbacks
    out["fail_frac"] = (failed / attempted if attempted else 0.0, "ratio")

    own = self_seconds(timed)
    totals = {layer: 0.0 for layer in LAYERS.values()}
    for s in timed:
        totals[LAYERS[s.name.split(".", 1)[0]]] += own[s.id]
    for layer, secs in totals.items():
        out[f"self_s.{layer}"] = (secs, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (len(spans), "count")
    return out
