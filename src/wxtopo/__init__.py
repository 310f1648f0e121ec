"""Optimal-transport crossover for evolutionary topology optimization."""

from .crossover import (
    CrossoverConfig,
    DistanceMatrix,
    adaptive_epsilon,
    generate_offspring,
    linear_crossover,
    pairwise_distances,
    wasserstein_crossover,
)
from .errors import WxTopoError
from .evolve import (
    EvolveConfig,
    GenerationStats,
    Member,
    Population,
    check_convergence,
    crowding_truncate,
    evolve_loop,
    hypervolume_2d,
    non_dominated_sort,
)
from .fem2d import (
    BoundaryConditions,
    ElasticModel,
    StressField,
    max_stress,
    pnorm_stress,
    solve_displacement,
    von_mises,
)
from .grid_field import (
    DensityField,
    GridSpec,
    ProbabilityField,
    from_probability_minmax,
    read_field,
    resample,
    to_probability,
    write_field,
)
from .hf_eval import DirichletBand, HfConfig, Objectives, binarize, hf_evaluate, pde_smooth
from .ot import (
    KernelApplier,
    SinkhornReport,
    exact_ot_lp,
    sinkhorn_barycenter,
    sinkhorn_distance,
)
from .topopt_lf import (
    FilterKernel,
    LfBounds,
    LfResult,
    SeedPoint,
    density_filter,
    lf_optimize,
    mma_update,
    seed_sweep,
)

__version__ = "0.1.0"
