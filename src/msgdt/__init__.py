"""Stochastic gradient descent for tensor linear systems A * X = B under the
t-product, when entries of A are missing.

The pieces: a dense third-order tensor type with the t-product algebra
(:mod:`msgdt.tensor`), three missing-data models with their correction
tensors (:mod:`msgdt.masking`), the SGD iteration (:mod:`msgdt.solver`),
every convergence constant of the fixed- and decaying-step analyses
(:mod:`msgdt.bounds`), and Monte Carlo / enumeration verifiers
(:mod:`msgdt.checks`).  ``msgdt.cli`` exposes all of it on the command
line.  The dense reference constructions the verifiers and tests compare
against (``bcirc``, mask enumeration, the dense ``g(X)``) live in
:mod:`msgdt.oracle`, which is not imported here: ``from msgdt import
oracle`` loads it.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    compute_bound_report,
    contraction_ratio,
    decay_bound,
    fixed_step_envelope,
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
    draw_mask,
    format_model,
    parse_model,
)
from .solver import (
    ConstantStep,
    HybridStep,
    InverseSqrtStep,
    ProblemInstance,
    RunResult,
    RunTrace,
    SolverConfig,
    objective,
    run_msgdt,
    step_size,
)
from .synthetic import Dims, SyntheticSystem, gen_synthetic
from .tensor import (
    Tensor3,
    frob_norm,
    hadamard,
    inner,
    ones,
    read_t3f1,
    tprod,
    transpose,
    write_t3f1,
    zeros,
)

__all__ = [
    "__version__",
    # tensor
    "Tensor3",
    "tprod",
    "transpose",
    "inner",
    "frob_norm",
    "hadamard",
    "zeros",
    "ones",
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
    # solver
    "ConstantStep",
    "InverseSqrtStep",
    "HybridStep",
    "step_size",
    "SolverConfig",
    "ProblemInstance",
    "RunTrace",
    "RunResult",
    "run_msgdt",
    "objective",
    # bounds
    "BoundReport",
    "compute_bound_report",
    "gradient_second_moment_bound",
    "solution_second_moment_bound",
    "lipschitz_constant",
    "strong_convexity",
    "contraction_ratio",
    "horizon_bound",
    "fixed_step_envelope",
    "decay_bound",
    "max_row_norm",
    # synthetic
    "Dims",
    "SyntheticSystem",
    "gen_synthetic",
]
