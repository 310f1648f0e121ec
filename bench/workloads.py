"""Workloads of the wxtopo benchmark: inputs from a seed, one timed unit, output checks.

Every workload calls only wxtopo's public API. Functions that the traced run
rebinds (``seed_sweep``'s helpers, ``hf_evaluate``, ...) are looked up on their
module at call time so the tracer's wrappers see these calls too.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from wxtopo import benchmark as problem
from wxtopo import config, evolve, fem2d, grid_field, hf_eval, topopt_lf

VOLUME_RESIDUAL_MAX = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lf_preset: str
    lattice: tuple[int, int]
    lf_iters: int
    bounds: tuple[float, float, float, float]  # r_min, r_max, v_min, v_max
    jitter: tuple[float, float, float, float]  # seed-drawn inward shift of each bound
    eval_preset: str | None = None  # None: the LF sweep itself is the timed unit
    n_pop: int = 0
    n_xo: int = 0
    t_max: int = 0
    tiny: bool = False

    @property
    def evolves(self) -> bool:
        return self.eval_preset is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seed-desk",
            "LF seeding alone: P-norm gradients, MMA and the density filter at desk size, "
            "with no crossover and no HF eval; the bypass workload for crossover changes",
            lf_preset="desk", lattice=(2, 3), lf_iters=8,
            bounds=(0.03, 0.12, 0.30, 0.60), jitter=(0.01, 0.01, 0.02, 0.02),
        ),
        Workload(
            "evolve-desk",
            "the evolve loop as users run it at desk size: Wasserstein crossover and HF eval "
            "share each generation, with selection and checkpoint I/O on the path",
            lf_preset="desk", lattice=(2, 3), lf_iters=10,
            bounds=(0.04, 0.10, 0.40, 0.60), jitter=(0.01, 0.01, 0.02, 0.02),
            eval_preset="desk", n_pop=6, n_xo=4, t_max=1,
        ),
        Workload(
            "evolve-paper2d",
            "the paper's 100x200 grid, 200x400 HF and crossover settings, where crossover "
            "dominates and FEM fill-in grows; changes that depend on problem size show here",
            lf_preset="desk", lattice=(1, 2), lf_iters=20,
            bounds=(0.04, 0.10, 0.50, 0.60), jitter=(0.01, 0.01, 0.02, 0.02),
            eval_preset="paper2d", n_pop=2, n_xo=2, t_max=1,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload on a grid small enough to run in about a second."""
    return replace(w, lf_iters=8, tiny=True)


def run_config(preset: str, w: Workload) -> config.RunConfig:
    # The seed moves the LF lattice only; the crossover keeps the presets'
    # RNG seed, so the quality metrics differ little between workload seeds.
    cfg = config.parse_config_text("", preset=preset)
    if w.tiny:
        cfg = replace(cfg, grid_nx=cfg.grid_nx // 5, grid_ny=cfg.grid_ny // 5,
                      xo_max_iter=40)
    return cfg


def lf_bounds(w: Workload, seed: int) -> topopt_lf.LfBounds:
    """The seed lattice's box: the workload's bounds, each moved inward by a seeded share."""
    u = np.random.default_rng(seed).random(4)
    r_min, r_max, v_min, v_max = w.bounds
    jr0, jr1, jv0, jv1 = np.asarray(w.jitter) * u
    return topopt_lf.LfBounds(r_min + jr0, r_max - jr1, v_min + jv0, v_max - jv1)


@dataclass
class Inputs:
    lf_cfg: config.RunConfig
    bounds: topopt_lf.LfBounds
    lf_results: list = None
    parents: list = None
    cfg: config.RunConfig = None
    evaluator: object = None
    evolve_cfg: evolve.EvolveConfig = None


def _sweep(w: Workload, lf_cfg: config.RunConfig, bounds, workers: int) -> list:
    grid = lf_cfg.grid()
    return topopt_lf.seed_sweep(
        lf_cfg.model(), problem.cracked_plate_bc(grid), w.lattice[0], w.lattice[1],
        lf_cfg.lf_p_norm, max_iter=w.lf_iters, bounds=bounds, move=lf_cfg.lf_move,
        workers=workers,
    )


def setup(w: Workload, seed: int, workers: int) -> Inputs:
    """Inputs of one run; for evolve workloads this runs the parents' LF sweep."""
    lf_cfg = run_config(w.lf_preset, w)
    inputs = Inputs(lf_cfg, lf_bounds(w, seed))
    if not w.evolves:
        # one solve fills the per-grid discretization cache, so every timed
        # sweep runs warm (the evolve workloads warm it in their own sweep)
        grid = lf_cfg.grid()
        uniform = grid_field.DensityField(grid, np.full(grid.n, inputs.bounds.v_min))
        fem2d.solve_displacement(lf_cfg.model(), uniform, problem.cracked_plate_bc(grid))
        return inputs
    results = _sweep(w, lf_cfg, inputs.bounds, workers)
    bad = [r.error for r in results if not r.ok]
    if bad:
        raise RuntimeError(f"set-up LF sweep failed: {bad[0]}")
    cfg = run_config(w.eval_preset, w)
    grid = cfg.grid()
    parents = [r.density if r.density.grid == grid else grid_field.resample(r.density, grid)
               for r in results]
    model, hf_cfg = cfg.model(), cfg.hf()
    bc = problem.cracked_plate_bc(hf_cfg.refined(grid))

    def evaluator(fld):
        return hf_eval.hf_evaluate(fld, model, bc, hf_cfg)

    inputs.lf_results = results
    inputs.parents = parents
    inputs.cfg = cfg
    inputs.evaluator = evaluator
    # hv_window above t_max: with hv_rel_tol = 0 a dip in HV after crowding
    # truncation would otherwise end the run early and shorten the timed work
    inputs.evolve_cfg = evolve.EvolveConfig(
        n_pop=w.n_pop, n_xo=w.n_xo, t_max=w.t_max, hv_rel_tol=0.0,
        hv_window=w.t_max + 2, crossover=cfg.crossover(),
    )
    return inputs


@dataclass
class UnitResult:
    lf_results: list | None = None
    history: list | None = None
    population: object = None
    history_bytes: bytes = b""
    evals: list | None = None  # (generation, feasible, J1, J2) per evals.csv row
    run_bytes: int = 0


def run_unit(w: Workload, inputs: Inputs, workers: int, run_dir: Path) -> UnitResult:
    """The timed unit: one LF sweep, or one full evolve run writing ``run_dir``."""
    if not w.evolves:
        return UnitResult(lf_results=_sweep(w, inputs.lf_cfg, inputs.bounds, workers))
    population, history = evolve.evolve_loop(
        inputs.evolve_cfg, inputs.parents, inputs.evaluator,
        crossover_operator="wasserstein", workers=workers, run_dir=run_dir,
    )
    evals = []
    for line in (run_dir / "evals.csv").read_text().splitlines()[1:]:
        gen, _cid, j1, j2, feasible, _secs = line.split(",")
        evals.append((int(gen), feasible == "1", float(j1), float(j2)))
    return UnitResult(
        history=history, population=population,
        history_bytes=(run_dir / "history.csv").read_bytes(), evals=evals,
        run_bytes=sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file()),
    )


# -- output checks -------------------------------------------------------------

def _check_lf(results, label: str) -> list[str]:
    errors = []
    for k, r in enumerate(results):
        if not r.ok:
            continue  # counted as a failed operation, not a wrong output
        if r.constraint_residual > VOLUME_RESIDUAL_MAX:
            errors.append(f"{label} {k}: volume residual {r.constraint_residual:.3e}")
        v = r.density.values
        if not (np.all(v >= 0.0) and np.all(v <= 1.0)):
            errors.append(f"{label} {k}: density outside [0, 1]")
        if not np.isfinite(r.objective_history[-1]):
            errors.append(f"{label} {k}: non-finite objective")
    return errors


def check_setup(w: Workload, inputs: Inputs) -> list[str]:
    return _check_lf(inputs.lf_results, "set-up LF design") if w.evolves else []


def check_unit(w: Workload, inputs: Inputs, out: UnitResult) -> list[str]:
    if not w.evolves:
        return _check_lf(out.lf_results, "LF design")
    errors = []
    t_max = inputs.evolve_cfg.t_max
    if len(out.history) != t_max + 1:
        errors.append(f"{len(out.history)} generations, expected {t_max + 1}")
    if out.history_bytes.count(b"\n") != t_max + 2:
        errors.append("history.csv does not hold one row per generation")
    per_gen = [sum(1 for e in out.evals if e[0] == g) for g in range(t_max + 1)]
    if per_gen[0] != len(inputs.parents) or any(c != inputs.evolve_cfg.n_xo for c in per_gen[1:]):
        errors.append(f"evaluations per generation {per_gen}, expected "
                      f"{len(inputs.parents)} then {inputs.evolve_cfg.n_xo}")
    for gen, feasible, j1, j2 in out.evals:
        if feasible and not (np.isfinite(j1) and np.isfinite(j2)):
            errors.append(f"generation {gen}: feasible candidate with non-finite objectives")
    for m in out.population.members:
        if not (m.objectives.feasible and np.all(np.isfinite(m.objectives.j))):
            errors.append(f"member {m.id}: survivor without finite objectives")
        v = m.field.values
        if not (np.all(v >= 0.0) and np.all(v <= 1.0)):
            errors.append(f"member {m.id}: density outside [0, 1]")
    return errors


def history_digest(out: UnitResult) -> str:
    if out.history_bytes:
        return hashlib.sha256(out.history_bytes).hexdigest()
    objectives = [r.objective_history[-1] if r.ok else None for r in out.lf_results]
    return hashlib.sha256(repr(objectives).encode()).hexdigest()


# -- counts and quality ---------------------------------------------------------

def operations(w: Workload, out: UnitResult) -> tuple[int, int]:
    """(attempted, failed) outputs of one unit: LF runs, or HF evaluations."""
    if not w.evolves:
        return len(out.lf_results), sum(1 for r in out.lf_results if not r.ok)
    return len(out.evals), sum(1 for e in out.evals if not e[1])


def lf_j_median(results) -> float:
    return statistics.median(r.objective_history[-1] for r in results if r.ok)


def hv_norm_final(w: Workload, inputs: Inputs, out: UnitResult) -> float:
    """Final hypervolume over the starting one.

    Evolve workloads read it from the loop's history. For the LF sweep the
    designs' (P-norm stress, volume) points after the last iteration are
    compared with those at the first, against a reference point frozen from
    the first, the same rule the evolve loop applies to generation 0.
    """
    if w.evolves:
        return out.history[-1].hv_normalized
    ok = [r for r in out.lf_results if r.ok]
    start = [np.array([r.objective_history[0], r.volume]) for r in ok]
    final = [np.array([r.objective_history[-1], r.volume]) for r in ok]
    ref = evolve.reference_point(start)
    return evolve.hypervolume_2d(final, ref) / evolve.hypervolume_2d(start, ref)
