"""Worked saddle-point applications with closed-form proximal updates. Each
names its own start point and declares its norm and strong-convexity
constants, from which the inherited ``schedule()`` picks its schedule, so
``engine.solve`` solves them all; ``solve_l1_logreg``, ``solve_matrix_game``
and ``solve_lasso`` are its names."""

from .games import MatrixGameProblem, game_optimality_residual, solve_matrix_game
from .lasso import LassoProblem, lasso_optimality_residual, shrink1, solve_lasso
from .logreg import (
    L1LogRegProblem,
    l1logreg_dual_residual,
    recover_v,
    solve_l1_logreg,
    support_from_dual,
)
from .quadratic import QuadraticSaddleProblem

__all__ = [
    "MatrixGameProblem",
    "game_optimality_residual",
    "solve_matrix_game",
    "LassoProblem",
    "shrink1",
    "lasso_optimality_residual",
    "solve_lasso",
    "L1LogRegProblem",
    "l1logreg_dual_residual",
    "recover_v",
    "support_from_dual",
    "solve_l1_logreg",
    "QuadraticSaddleProblem",
]
