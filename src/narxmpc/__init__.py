"""Kernel-surrogate NARX identification, MPC and sampled stability certificates."""

__version__ = "0.1.0"

from .narx import (
    AffineNormalization,
    Box,
    DimensionMismatchError,
    NarxDims,
    NarxDynamics,
    build_regressor,
    shift_state,
)
from .kernels import (
    Dataset,
    ErrorConstants,
    KernelFitError,
    KernelInterpolant,
    KernelSpec,
    estimate_error_constants,
    fill_distance,
    fit_interpolant,
    kernel_matrix,
    min_pairwise_distance,
    wendland_phi,
)
from .mpc import (
    ClosedLoopTrace,
    MpcConfig,
    OcpSolution,
    SolverConfig,
    SolverError,
    StageCostWeights,
    run_closed_loop,
    solve_ocp,
    solve_ocp_batch,
    stage_cost,
)
from .stability import (
    GrowthBoundEstimate,
    StabilityReport,
    StorageMatrix,
    decay_r2,
    estimate_growth_bound,
    gamma_bar,
    min_horizon,
    storage_matrix,
    storage_value,
    verify_decrease,
)
from .twotank import (
    BenchmarkConfig,
    DomainError,
    TwoTankNarxDynamics,
    TwoTankParams,
    TwoTankPlant,
    equilibrium_levels,
    generate_dataset,
    reconstruct_hidden_level,
    sample_consistent_states,
    sample_state_grid,
    two_tank_step,
)
from .bench import BenchmarkResult, make_mpc_config, plant_views, run_arm, run_benchmark
