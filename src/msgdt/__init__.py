"""Stochastic gradient descent for tensor linear systems A * X = B under the
t-product, when entries of A are missing.

The pieces: a dense third-order tensor type with the t-product algebra
(:mod:`msgdt.tensor`), three missing-data models with their correction
tensors (:mod:`msgdt.masking`), the SGD iteration (:mod:`msgdt.solver`),
every convergence constant of the fixed- and decaying-step analyses
(:mod:`msgdt.bounds`), and Monte Carlo / enumeration verifiers
(:mod:`msgdt.checks`).  ``msgdt.cli`` exposes all of it on the command
line.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    compute_bound_report,
    contraction_ratio,
    decay_bound,
    gradient_second_moment_bound,
    horizon_bound,
    lipschitz_constant,
    max_row_norm,
    solution_second_moment_bound,
    strong_convexity,
)
from .masking import (
    ColumnBlockMissing,
    FrontalSliceMissing,
    MissingModel,
    UniformMissing,
    correction_tensor,
    draw_mask,
    enumerate_row_masks,
    format_model,
    parse_model,
    verify_expectation_identity,
)
from .solver import (
    ConstantStep,
    HybridStep,
    InverseSqrtStep,
    ProblemInstance,
    RunResult,
    RunTrace,
    SolverConfig,
    StepSchedule,
    full_gradient,
    gradient_estimate,
    objective,
    project_ball,
    run_msgdt,
    step_size,
    update_linear_part,
)
from .synthetic import Dims, SyntheticSystem, gaussian_tensor, gen_synthetic
from .tensor import (
    Tensor3,
    bcirc,
    fold,
    frob_norm,
    from_slices,
    hadamard,
    identity_tensor,
    inner,
    is_hermitian,
    ones,
    read_t3f1,
    row_slice,
    tprod,
    transpose,
    tube_dft,
    tube_idft,
    unfold,
    write_t3f1,
    zeros,
)

__all__ = [
    "__version__",
    # tensor
    "Tensor3",
    "unfold",
    "fold",
    "bcirc",
    "tprod",
    "transpose",
    "is_hermitian",
    "inner",
    "frob_norm",
    "hadamard",
    "row_slice",
    "tube_dft",
    "tube_idft",
    "identity_tensor",
    "zeros",
    "ones",
    "from_slices",
    "read_t3f1",
    "write_t3f1",
    # masking
    "UniformMissing",
    "ColumnBlockMissing",
    "FrontalSliceMissing",
    "MissingModel",
    "parse_model",
    "format_model",
    "draw_mask",
    "correction_tensor",
    "enumerate_row_masks",
    "verify_expectation_identity",
    # solver
    "ConstantStep",
    "InverseSqrtStep",
    "HybridStep",
    "StepSchedule",
    "step_size",
    "SolverConfig",
    "ProblemInstance",
    "RunTrace",
    "RunResult",
    "gradient_estimate",
    "update_linear_part",
    "project_ball",
    "run_msgdt",
    "objective",
    "full_gradient",
    # bounds
    "BoundReport",
    "compute_bound_report",
    "gradient_second_moment_bound",
    "solution_second_moment_bound",
    "lipschitz_constant",
    "strong_convexity",
    "contraction_ratio",
    "horizon_bound",
    "decay_bound",
    "max_row_norm",
    # synthetic
    "Dims",
    "SyntheticSystem",
    "gen_synthetic",
    "gaussian_tensor",
]
