"""Crossover operators over density fields.

The transport-based operator turns the two parents into probability fields,
computes their entropic barycenter at a random weight, and min-max scales the
result back into a density. The regularization strength is picked per pair
from the population's pairwise-distance range, so similar parents get sharp
interpolation and dissimilar ones get cheap, blurrier interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .errors import ConstantField, PopulationTooSmall
from .grid_field import DensityField, check_same_grid, from_probability_minmax, to_probability
from .ot import DEFAULT_MAX_ITER, SinkhornReport, sinkhorn_barycenter


@dataclass(frozen=True)
class CrossoverConfig:
    """Crossover settings.

    ``eps_min`` and ``eps_max`` bound the per-pair regularization ramp. ``tau``
    bounds the barycenter's output-side marginal gap s, an L1 mass (see
    ``ot.sinkhorn_barycenter``); at 1e-4 the min-max child lies within ~2e-3
    of a run to s <= 1e-8. ``max_iter`` caps its steps.
    """

    eps_min: float = 1e-6
    eps_max: float = 1e-4
    tau: float = 1e-4
    rng_seed: int = 0
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        # an infinite eps_max would make adaptive_epsilon return inf or NaN
        if not (0 < self.eps_min <= self.eps_max < np.inf):
            raise ValueError("need 0 < eps_min <= eps_max < inf")
        if not self.tau >= 0:  # NaN fails too
            raise ValueError("need tau >= 0")
        if self.rng_seed < 0:
            # numpy's SeedSequence rejects it, after a run has started writing
            raise ValueError("need rng_seed >= 0")
        if self.max_iter < 1:
            # with no sweep the barycenter is the normalized K 1, the same
            # field whatever the parents
            raise ValueError("need max_iter >= 1")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric Euclidean distances between population density vectors."""

    d: np.ndarray
    d_min: float
    d_max: float


def pairwise_distances(pop: list[DensityField]) -> DistanceMatrix:
    """Euclidean field distances D_ij = ||values_i - values_j||_2."""
    if len(pop) < 2:
        raise PopulationTooSmall("need at least two fields")
    check_same_grid(*pop)
    stack = np.stack([f.values for f in pop])
    sq = np.sum(stack * stack, axis=1)
    gram = stack @ stack.T
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    d = 0.5 * (d + d.T)
    off = d[~np.eye(len(pop), dtype=bool)]
    return DistanceMatrix(d, float(off.min()), float(off.max()))


def adaptive_epsilon(dij: float, dm: DistanceMatrix, cfg: CrossoverConfig) -> float:
    """Linear ramp from eps_min at d_min to eps_max at d_max."""
    if dm.d_max == dm.d_min:
        return cfg.eps_min
    dij = min(max(dij, dm.d_min), dm.d_max)
    frac = (dij - dm.d_min) / (dm.d_max - dm.d_min)
    return cfg.eps_min + (cfg.eps_max - cfg.eps_min) * frac


def linear_crossover(
    parents: tuple[DensityField, DensityField], lam: float
) -> DensityField:
    """Elementwise convex combination lam * parent1 + (1 - lam) * parent2."""
    grid = check_same_grid(*parents)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    values = lam * parents[0].values + (1.0 - lam) * parents[1].values
    return DensityField(grid, np.clip(values, 0.0, 1.0))


def wasserstein_crossover(
    parents: tuple[DensityField, DensityField],
    lam: float,
    epsilon: float,
    tau: float,
    max_iter: int = DEFAULT_MAX_ITER,
    report_sink: list[SinkhornReport] | None = None,
) -> DensityField:
    """Barycentric offspring with weight ``lam`` on the first parent.

    Raises ConstantField when the barycenter is over-blurred into a flat
    field; a non-converged barycenter is still returned (the report lands in
    ``report_sink`` when given).
    """
    check_same_grid(*parents)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    pa = to_probability(parents[0])
    pb = to_probability(parents[1])
    bary, report = sinkhorn_barycenter(
        [pa, pb], [lam, 1.0 - lam], epsilon, tau, max_iter=max_iter
    )
    if report_sink is not None:
        report_sink.append(report)
    return from_probability_minmax(bary)


@dataclass(frozen=True, eq=False)
class OffspringRecord:
    """How one child was bred.

    ``parents`` index the population and, with ``lam``, come from the draw
    that produced the child. ``reports`` holds the report of every barycenter
    the slot ran, in order: none for the linear operator, two for a slot that
    redrew. ``epsilon`` belongs to the last barycenter and is None for the
    linear operator; ``linear_fallback`` marks a slot whose barycenters all
    degenerated, so the child is linear.
    """

    parents: tuple[int, int]
    lam: float
    epsilon: float | None
    reports: tuple[SinkhornReport, ...]
    linear_fallback: bool


def _offspring_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    # (seed, stream, index) fully determines the draws, so serial and
    # parallel generation agree bit for bit.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)))


def generate_offspring(
    pop: list[DensityField],
    n_xo: int,
    cfg: CrossoverConfig,
    operator: str = "wasserstein",
    stream: int = 0,
    workers: int = 1,
    record_sink: list[OffspringRecord] | None = None,
) -> list[DensityField]:
    """Produce exactly ``n_xo`` offspring from uniformly drawn parent pairs.

    Pairs never repeat a parent within one pair (i != j) but may repeat across
    offspring. A ConstantField barycenter triggers one redraw of parents and
    weight; if that also degenerates, the slot falls back to the linear
    operator so the offspring count stays exact.

    ``record_sink`` receives one OffspringRecord per child. Children are bred
    on ``workers`` threads. Each child's draws come from its own (seed,
    stream, index) generator, and children and records are collected in child
    order, so the result does not depend on ``workers``.
    """
    if operator not in ("wasserstein", "linear"):
        raise ValueError(f"unknown operator {operator!r}")
    if len(pop) < 2:
        raise PopulationTooSmall(f"population of {len(pop)} cannot breed")
    if n_xo == 0:
        return []
    check_same_grid(*pop)
    dm = pairwise_distances(pop)

    def breed(k: int) -> tuple[DensityField, OffspringRecord]:
        rng = _offspring_rng(cfg.rng_seed, stream, k)
        reports: list[SinkhornReport] = []
        for attempt in range(2):
            i, j = rng.choice(len(pop), size=2, replace=False)
            parents = (int(i), int(j))
            lam = float(rng.random())
            pair = (pop[i], pop[j])
            if operator == "linear":
                return linear_crossover(pair, lam), OffspringRecord(parents, lam, None, (), False)
            eps = adaptive_epsilon(float(dm.d[i, j]), dm, cfg)
            try:
                child = wasserstein_crossover(
                    pair, lam, eps, cfg.tau, max_iter=cfg.max_iter,
                    report_sink=reports,
                )
                return child, OffspringRecord(parents, lam, eps, tuple(reports), False)
            except ConstantField:
                if attempt == 1:
                    record = OffspringRecord(parents, lam, eps, tuple(reports), True)
                    return linear_crossover(pair, lam), record

    bred = parallel_map(breed, range(n_xo), workers)
    if record_sink is not None:
        record_sink.extend(record for _, record in bred)
    return [child for child, _ in bred]
