"""Strongly convex quadratic bilinear games with analytic saddle points.

    min_x max_y  (gamma_g/2)||x||^2 + <c, x> + <y, A x> - (gamma_h/2)||y||^2 - <d, y>

Both proxes are affine and the saddle point solves a linear system, which
makes these problems the reference fixtures for the engine: schedules,
contraction bounds and ergodic estimates can all be checked against exact
values.
"""

from __future__ import annotations

import numpy as np

from ..bregman import Quadratic
from ..checks import check_finite, check_real, check_vector
from ..engine import SaddleProblem
from ..operators import DenseOperator

__all__ = ["QuadraticSaddleProblem"]


def _linear_term(v, size, name):
    """A finite vector of shape (size,); None means zeros."""
    if v is None:
        return np.zeros(size)
    return check_vector(check_finite(v, name), size, name)


class QuadraticSaddleProblem(SaddleProblem):
    problem_id = "quadratic-game"

    def __init__(self, A, gamma_g=1.0, gamma_h_star=1.0, c=None, d=None):
        self.operator = DenseOperator(A)
        m, n = self.operator.rows, self.operator.cols
        self.gamma_g = check_real("gamma_g", gamma_g, positive=False)
        self.gamma_h_star = check_real("gamma_h_star", gamma_h_star, positive=False)
        self.c = _linear_term(c, n, "c")
        self.d = _linear_term(d, m, "d")
        self.geom_x = Quadratic(1.0)
        self.geom_y = Quadratic(1.0)
        self.op_norm = float(np.linalg.norm(self.operator.matrix, 2))

    def primal_prox(self, aty, x_bar, tau):
        return self.geom_x.step(x_bar, self.c + aty, -tau, 1.0 + self.gamma_g * tau)

    def dual_prox(self, ax, y_bar, sigma):
        return self.geom_y.step(y_bar, ax - self.d, sigma, 1.0 + self.gamma_h_star * sigma)

    def lagrangian(self, x, y):
        x = check_vector(x, self.operator.cols, "x")
        y = check_vector(y, self.operator.rows, "y")
        return float(
            0.5 * self.gamma_g * x @ x
            + self.c @ x
            + y @ self.operator.apply(x)
            - 0.5 * self.gamma_h_star * y @ y
            - self.d @ y
        )

    def saddle_point(self):
        """Solve the first-order system exactly.

        Requires gamma_g > 0 and gamma_h_star > 0 (unique saddle point).
        """
        if not (self.gamma_g > 0 and self.gamma_h_star > 0):
            raise ValueError("analytic saddle point needs both gammas positive")
        A = self.operator.matrix
        n = A.shape[1]
        # gamma_g x + c + A^T y = 0 and y = (A x - d)/gamma_h.
        M = self.gamma_g * np.eye(n) + (A.T @ A) / self.gamma_h_star
        rhs = (A.T @ self.d) / self.gamma_h_star - self.c
        x_s = np.linalg.solve(M, rhs)
        y_s = (A @ x_s - self.d) / self.gamma_h_star
        return x_s, y_s
