"""Zero-sum matrix games with entropy regularization.

    min_{x in simplex_n} max_{y in simplex_m}
        lam * H_n(x) + <y, A x> - lam * H_m(y)

with H the negative entropy. Both players live on simplices with the
Kullback-Leibler geometry, so each prox is one ``NegativeEntropy.step``, and
both parts are lam-strongly convex relative to their entropies, which puts
the problem in the linear-rate regime with

    gamma_g = gamma_h_star = lam,   ||A|| = max_ij |A_ij|.

The unique equilibrium satisfies y = softmax(A x / lam) and
x = softmax(-A^T y / lam); the first optimality condition
-[A^T y]_j = lam(1 + log x_j) holds up to the simplex multiplier, so its
residual is measured mean-centered.
"""

from __future__ import annotations

import numpy as np

from ..bregman import NegativeEntropy, softmax
from ..checks import check_real
from ..engine import SaddleProblem, solve
from ..operators import DenseOperator, norm_1_inf

__all__ = [
    "MatrixGameProblem",
    "game_optimality_residual",
    "solve_matrix_game",
]


class MatrixGameProblem(SaddleProblem):
    problem_id = "matrix-game"

    def __init__(self, payoff, lam):
        self.lam = check_real("lam", lam, positive=True)
        self.operator = DenseOperator(payoff)
        self.m, self.n = self.operator.rows, self.operator.cols
        self.op_norm = norm_1_inf(self.operator)
        self.geom_x = NegativeEntropy(self.n)
        self.geom_y = NegativeEntropy(self.m)
        self.gamma_g = self.lam
        self.gamma_h_star = self.lam

    def primal_prox(self, aty, x_bar, tau):
        return self.geom_x.step(x_bar, aty, -tau, 1.0 + self.gamma_g * tau)

    def dual_prox(self, ax, y_bar, sigma):
        return self.geom_y.step(y_bar, ax, sigma, 1.0 + self.gamma_h_star * sigma)

    def default_init(self, seed=0):
        """A random interior point of each simplex, drawn from ``seed``."""
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.0, 1.0, size=self.n)
        y0 = rng.uniform(0.0, 1.0, size=self.m)
        return x0 / x0.sum(), y0 / y0.sum()


def game_optimality_residual(problem, x, y):
    """Residuals of the two equilibrium conditions.

    Returns (r1, r2): r1 is the mean-centered sup-norm violation of
    [A^T y]_j + lam (1 + log x_j) = const, r2 is the l1 distance from y to
    softmax(A x / lam). Both vanish exactly at the equilibrium.
    """
    x = problem.geom_x.validate_point(x, "x", interior=True)
    y = problem.geom_y.validate_point(y, "y", interior=True)
    g = problem.operator.adjoint_apply(y) + problem.lam * (1.0 + np.log(x))
    r1 = float(np.max(np.abs(g - g.mean())))
    r2 = float(np.sum(np.abs(y - softmax(problem.operator.apply(x) / problem.lam))))
    return r1, r2


solve_matrix_game = solve
