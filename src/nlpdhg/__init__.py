"""Nonlinear primal-dual hybrid gradient methods with Bregman proximity
operators: geometry toolkit, iteration engine, worked applications
(l1-constrained logistic regression, entropy-regularized matrix games, the
Lasso), baselines, and a benchmark harness."""

from .bregman import BinaryEntropyAverage, NegativeEntropy, Quadratic, three_point_check
from .engine import (
    ErgodicAccumulator,
    IterateState,
    SaddleProblem,
    SolveReport,
    StoppingRule,
    delta_diag,
    run,
    solve,
    step,
)
from .operators import (
    DenseOperator,
    PowerIterationError,
    ScaledConcat,
    norm_1_2,
    norm_1_inf,
    norm_2_2,
)
from .schedules import (
    AccDualSchedule,
    AccPrimalSchedule,
    ConstantSchedule,
    LinearRateSchedule,
    linear_rate_params,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryEntropyAverage",
    "NegativeEntropy",
    "Quadratic",
    "three_point_check",
    "DenseOperator",
    "ScaledConcat",
    "PowerIterationError",
    "norm_1_2",
    "norm_1_inf",
    "norm_2_2",
    "ConstantSchedule",
    "AccPrimalSchedule",
    "AccDualSchedule",
    "LinearRateSchedule",
    "linear_rate_params",
    "SaddleProblem",
    "IterateState",
    "ErgodicAccumulator",
    "StoppingRule",
    "SolveReport",
    "step",
    "delta_diag",
    "run",
    "solve",
]
