"""Evolutionary loop: selection, hypervolume tracking and orchestration.

Each generation evaluates only the fresh offspring, purges infeasible
candidates, unions survivors with the previous population, selects down to
capacity by non-dominated rank with crowding-distance truncation, and tracks
the dominated hypervolume against a reference point frozen from the first
feasible generation. The stop rule reads the hypervolume of an archive of the
non-dominated objectives of every feasible candidate so far, which never
decreases; the population's own can dip when truncation drops front members.
Everything is minimization-convention.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._pool import parallel_map
from .crossover import CrossoverConfig, OffspringRecord, generate_offspring
from .errors import ExtinctPopulation
from .grid_field import DensityField, write_field
from .hf_eval import Objectives


@dataclass(frozen=True, eq=False)
class Member:
    field: DensityField
    objectives: Objectives
    born: int
    id: int


@dataclass
class Population:
    members: list[Member]


@dataclass(frozen=True)
class EvolveConfig:
    n_pop: int = 100
    n_xo: int = 100
    t_max: int = 100
    hv_rel_tol: float = 0.0
    hv_window: int = 10
    crossover: CrossoverConfig = field(default_factory=CrossoverConfig)

    def __post_init__(self):
        if self.n_pop < 2 or self.n_xo < 2:
            raise ValueError("n_pop and n_xo must be >= 2")
        if self.t_max < 0:
            raise ValueError("t_max must be >= 0")
        if self.hv_window < 1:
            raise ValueError("hv_window must be >= 1")


@dataclass
class GenerationStats:
    generation: int
    hv: float
    hv_normalized: float
    front_size: int
    front_union: int
    n_feasible: int
    eval_seconds: float
    crossover_seconds: float
    selection_seconds: float


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """a Pareto-dominates b under minimization."""
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_sort(objs: list[np.ndarray]) -> list[int]:
    """Rank vectors by dominance layers; rank 0 is the Pareto front."""
    if len(objs) == 0:
        return []
    mat = np.asarray(objs, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        raise ValueError("objective vectors must be finite")
    a, b = mat[:, None, :], mat[None, :, :]
    dom = np.all(a <= b, axis=2) & np.any(a < b, axis=2)  # dom[p, q]: p dominates q
    ranks = np.empty(len(objs), dtype=int)
    remaining = np.ones(len(objs), dtype=bool)
    rank = 0
    while remaining.any():
        # dominance is a strict partial order, so every layer is non-empty
        layer = remaining & ~dom[remaining].any(axis=0)
        ranks[layer] = rank
        remaining &= ~layer
        rank += 1
    return ranks.tolist()


def crowding_distance(front: list[np.ndarray]) -> np.ndarray:
    """NSGA-II crowding distance; per-objective extremes get infinity.

    A repeat of an earlier point adds nothing to the front's spread: it gets
    0, and the distinct points are spaced as if it were absent. Otherwise
    both copies of an extreme rank as boundary points, and truncation can
    keep two copies of one point over a distinct one (a child whose HF
    design matches its parent's).
    """
    everything = np.asarray(front, dtype=np.float64)
    out = np.zeros(len(everything))
    _, first = np.unique(everything, axis=0, return_index=True)
    distinct = np.sort(first)
    mat = everything[distinct]
    n = len(mat)
    if n <= 2:
        out[distinct] = np.inf
        return out
    dist = np.zeros(n)
    for m in range(mat.shape[1]):
        order = np.argsort(mat[:, m], kind="stable")
        vals = mat[order, m]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        span = vals[-1] - vals[0]
        if span == 0:
            continue
        gaps = (vals[2:] - vals[:-2]) / span
        interior = order[1:-1]
        finite = ~np.isinf(dist[interior])
        dist[interior[finite]] += gaps[finite]
    out[distinct] = dist
    return out


def crowding_truncate(front: list[np.ndarray], keep: int) -> list[int]:
    """Indices of the ``keep`` most spread-out members of one front.

    Boundary points always win; ties in distance break toward lower index.
    """
    if keep > len(front):
        raise ValueError("cannot keep more members than the front holds")
    if keep == len(front):
        return list(range(len(front)))
    dist = crowding_distance(front)
    order = sorted(range(len(front)), key=lambda i: (-dist[i], i))
    return sorted(order[:keep])


def hypervolume_2d(points: list[np.ndarray], ref: np.ndarray) -> float:
    """Exact area dominated by ``points`` and bounded by ``ref`` (minimization).

    Points with any coordinate at or beyond the reference contribute nothing
    and are dropped; dominated points are absorbed by the sweep.
    """
    ref = np.asarray(ref, dtype=np.float64)
    pts = [np.asarray(p, dtype=np.float64) for p in points]
    pts = [p for p in pts if p[0] < ref[0] and p[1] < ref[1]]
    if not pts:
        return 0.0
    pts.sort(key=lambda p: (p[0], p[1]))
    area = 0.0
    y_prev = ref[1]
    for p in pts:
        if p[1] >= y_prev:
            continue  # dominated by an earlier point
        area += (ref[0] - p[0]) * (y_prev - p[1])
        y_prev = p[1]
    return float(area)


def reference_point(objs: list[np.ndarray]) -> np.ndarray:
    """Worst value per objective, worsened by ten percent of the range."""
    mat = np.asarray(objs, dtype=np.float64)
    worst = mat.max(axis=0)
    best = mat.min(axis=0)
    span = worst - best
    pad = np.where(span > 0, 0.1 * span, 0.1 * np.maximum(np.abs(worst), 1.0))
    return worst + pad


def check_convergence(history: list[float], cfg: EvolveConfig) -> bool:
    """True when the trailing hypervolume gain stalls or the budget runs out."""
    t = len(history) - 1
    if t >= cfg.t_max:
        return True
    if len(history) < cfg.hv_window:
        return False
    base = history[-cfg.hv_window]
    gain = history[-1] - base
    rel = gain / abs(base) if base != 0 else (np.inf if gain > 0 else 0.0)
    return rel < cfg.hv_rel_tol


def _select(members: list[Member], capacity: int) -> tuple[list[Member], int]:
    """NSGA-II style selection; returns survivors and the union front size."""
    objs = [m.objectives.j for m in members]
    ranks = non_dominated_sort(objs)
    union_front = sum(1 for r in ranks if r == 0)
    if len(members) <= capacity:
        return list(members), union_front
    selected: list[Member] = []
    rank = 0
    while True:
        layer = [i for i, r in enumerate(ranks) if r == rank]
        if not layer:
            break
        if len(selected) + len(layer) <= capacity:
            selected.extend(members[i] for i in layer)
        else:
            room = capacity - len(selected)
            picked = crowding_truncate([objs[i] for i in layer], room)
            selected.extend(members[layer[i]] for i in picked)
            break
        rank += 1
    return selected, union_front


def _dedupe(members: list[Member]) -> list[Member]:
    """Collapse members whose density vectors match exactly; lowest id wins."""
    seen: dict[bytes, Member] = {}
    for m in sorted(members, key=lambda m: m.id):
        seen.setdefault(m.field.values.tobytes(), m)
    return list(seen.values())  # first-seen order is id order


def evolve_loop(
    cfg: EvolveConfig,
    lf_results: list[DensityField],
    evaluator,
    crossover_operator: str = "wasserstein",
    workers: int = 1,
    run_dir: Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> tuple[Population, list[GenerationStats]]:
    """Run the full evolutionary procedure from seeded designs.

    ``evaluator`` maps a DensityField to Objectives. Each generation's
    evaluations, then its children, are spread over the caller and up to
    ``workers - 1`` forked processes (see ``_pool.parallel_map``) and
    collected in id order, so runs are reproducible for any worker count. Parents keep their cached objectives; only fresh
    offspring are evaluated. When ``run_dir`` is given, history, per-phase
    timings, evaluation and offspring records and per-generation checkpoints
    are written beneath it. ``progress`` receives one line per generation
    once it has bred (see ``progress_line``).
    """
    if len(lf_results) < 2:
        raise ExtinctPopulation("need at least two seed designs")
    writer = _RunWriter(run_dir) if run_dir is not None else None
    next_id = 0
    pending: list[Member] = []
    for fld in lf_results:
        pending.append(Member(fld, None, 0, next_id))  # objectives filled below
        next_id += 1

    population: list[Member] = []
    history: list[GenerationStats] = []
    archive: list[np.ndarray] = []
    archive_hv: list[float] = []
    ref = None
    generation = 0

    def timed_eval(fld: DensityField) -> tuple[Objectives, float]:
        t0 = time.perf_counter()
        objectives = evaluator(fld)
        return objectives, time.perf_counter() - t0

    while True:
        t0 = time.perf_counter()
        timed = parallel_map(timed_eval, [m.field for m in pending], workers)
        evaluated = [Member(m.field, objectives, m.born, m.id)
                     for m, (objectives, _) in zip(pending, timed)]
        eval_seconds = time.perf_counter() - t0
        if writer:
            writer.record_evals(generation, [(m, s) for m, (_, s) in zip(evaluated, timed)])
        feasible = [m for m in evaluated if m.objectives.feasible]

        t0 = time.perf_counter()
        union = feasible if generation == 0 else population + feasible
        union = _dedupe(union)
        if not union:
            raise ExtinctPopulation(f"no feasible candidates at generation {generation}")
        if ref is None:
            ref = reference_point([m.objectives.j for m in union])
        population, union_front = _select(union, cfg.n_pop)
        hv = hypervolume_2d([m.objectives.j for m in population], ref)
        archive += [m.objectives.j for m in feasible]
        archive = [j for j, r in zip(archive, non_dominated_sort(archive)) if r == 0]
        archive_hv.append(hypervolume_2d(archive, ref))
        # selection keeps whole ranks in order, and each kept member of rank >= 1
        # is dominated by a kept rank-0 member; when rank 0 overflows, only
        # rank-0 members survive. So the survivors' front is the union's, capped.
        front_size = min(union_front, cfg.n_pop)
        selection_seconds = time.perf_counter() - t0

        hv0 = history[0].hv if history else hv
        stats = GenerationStats(
            generation=generation,
            hv=hv,
            hv_normalized=hv / hv0 if hv0 > 0 else (1.0 if hv == 0 else float("inf")),
            front_size=front_size,
            front_union=union_front,
            n_feasible=len(feasible),
            eval_seconds=eval_seconds,
            crossover_seconds=0.0,
            selection_seconds=selection_seconds,
        )
        history.append(stats)
        if writer:
            writer.checkpoint(generation, population)
            writer.record_history(stats)

        n_infeasible = len(evaluated) - len(feasible)
        if check_convergence(archive_hv, cfg):
            if progress:
                progress(progress_line(stats, len(evaluated), n_infeasible, []))
            break

        t0 = time.perf_counter()
        records: list[OffspringRecord] = []
        fields = generate_offspring(
            [m.field for m in population],
            cfg.n_xo,
            cfg.crossover,
            operator=crossover_operator,
            stream=generation,
            workers=workers,
            record_sink=records,
        )
        stats.crossover_seconds = time.perf_counter() - t0
        pending = []
        for fld in fields:
            pending.append(Member(fld, None, generation + 1, next_id))
            next_id += 1
        if writer:
            writer.record_timings(stats)
            writer.record_offspring(pending, records, population)
        if progress:
            progress(progress_line(stats, len(evaluated), n_infeasible, records))
        generation += 1

    if writer:
        writer.finalize(history)
    return Population(population), history


def progress_line(
    stats: GenerationStats, evals: int, infeasible: int, records: list[OffspringRecord]
) -> str:
    """One generation at a glance: its HV, evaluations, and the children it bred.

    ``converged`` counts the children whose last barycenter converged, out of
    the children bred (none after the last generation).
    """
    converged = sum(1 for r in records if r.reports and r.reports[-1].converged)
    return (
        f"generation {stats.generation} hv_normalized={stats.hv_normalized:.4f} "
        f"evals={evals} infeasible={infeasible} "
        f"crossover_s={stats.crossover_seconds:.2f} converged={converged}/{len(records)}"
    )


def _fmt(x) -> str:
    """Shortest round-trippable decimal form, independent of numpy scalar reprs."""
    return repr(float(x))


class _RunWriter:
    """Writes the on-disk artifacts of one evolutionary run."""

    def __init__(self, run_dir: Path):
        self.dir = Path(run_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.evals_path = self.dir / "evals.csv"
        self.evals_path.write_text("generation,candidate_id,J1,J2,feasible,eval_seconds\n")
        # rows are appended as each generation completes, so a crashed run
        # keeps the history of every finished generation
        self.history_path = self.dir / "history.csv"
        self.history_path.write_text(
            "generation,hv,hv_normalized,front_size,front_union,n_feasible\n"
        )
        # wall-clock phases live apart from history.csv so reruns stay
        # byte-identical on the deterministic artifacts
        self.timings_path = self.dir / "timings.csv"
        self.timings_path.write_text(
            "generation,eval_seconds,crossover_seconds,selection_seconds\n"
        )
        self.offspring_path = self.dir / "offspring.csv"
        self.offspring_path.write_text(
            "generation,candidate_id,parent_a,parent_b,lambda,epsilon,"
            "sweeps,residual,converged,restarts,linear_fallback\n"
        )

    def record_evals(self, generation: int, timed: list[tuple[Member, float]]):
        with self.evals_path.open("a") as fh:
            for m, seconds in timed:
                j = m.objectives.j
                fh.write(
                    f"{generation},{m.id},{_fmt(j[0])},{_fmt(j[1])},"
                    f"{int(m.objectives.feasible)},{seconds:.6f}\n"
                )

    def record_offspring(
        self, children: list[Member], records: list[OffspringRecord], parents: list[Member]
    ):
        # one row per child, in id order; the barycenter columns stay empty
        # for the linear operator
        with self.offspring_path.open("a") as fh:
            for child, rec in zip(children, records):
                a, b = (parents[i].id for i in rec.parents)
                eps = "" if rec.epsilon is None else _fmt(rec.epsilon)
                bary = rec.reports[-1].csv_row() if rec.reports else ",,,"
                fh.write(
                    f"{child.born},{child.id},{a},{b},{_fmt(rec.lam)},{eps},"
                    f"{bary},{int(rec.linear_fallback)}\n"
                )

    def checkpoint(self, generation: int, members: list[Member]):
        cdir = self.dir / "checkpoints" / f"gen_{generation:04d}"
        cdir.mkdir(parents=True, exist_ok=True)
        with (cdir / "objectives.csv").open("w") as fh:
            fh.write("candidate_id,born,J1,J2\n")
            for m in members:
                fh.write(f"{m.id},{m.born},{_fmt(m.objectives.j[0])},{_fmt(m.objectives.j[1])}\n")
        for m in members:
            write_field(m.field, cdir / f"member_{m.id:05d}.dfld")

    def record_history(self, s: GenerationStats):
        with self.history_path.open("a") as fh:
            fh.write(
                f"{s.generation},{_fmt(s.hv)},{_fmt(s.hv_normalized)},"
                f"{s.front_size},{s.front_union},{s.n_feasible}\n"
            )

    def record_timings(self, s: GenerationStats):
        with self.timings_path.open("a") as fh:
            fh.write(
                f"{s.generation},{s.eval_seconds:.6f},"
                f"{s.crossover_seconds:.6f},{s.selection_seconds:.6f}\n"
            )

    def finalize(self, history: list[GenerationStats]):
        # the last generation breeds no offspring, so its timings row is
        # complete only once the loop has stopped
        self.record_timings(history[-1])
