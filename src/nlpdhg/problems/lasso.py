"""The Lasso as a saddle-point problem.

    min_x  lam ||x||_1 + (1/2m) ||A x - b||_2^2

pairs with the dual variable y through

    min_x max_y  lam ||x||_1 + <y, A x - b> - (m/2) ||y||_2^2.

Both geometries are Euclidean (the dual one scaled by m), the dual part is
1-strongly convex relative to its geometry, and the method of choice is the
accelerated dual schedule with tau0 = 1/(2 ||A||^2) and sigma0 = 2, where
||A|| is the maximum l2 norm of a row of A (the operator norm induced by the
Euclidean primal and the l1-compatible dual pairing). The primal prox,
soft thresholding, leaves exact zeros; the dual one is ``Quadratic.step``.
The optimality conditions read y = (A x - b)/m and -A^T y in lam d||x||_1.
"""

from __future__ import annotations

import numpy as np

from ..bregman import Quadratic
from ..checks import check_finite, check_real, check_vector, real_array
from ..engine import SaddleProblem, solve
from ..operators import DenseOperator, _scaled

__all__ = [
    "shrink1",
    "LassoProblem",
    "lasso_optimality_residual",
    "solve_lasso",
]


def shrink1(x, beta):
    """Componentwise soft threshold, the prox of beta*||.||_1.

    Entries with |x_j| <= beta come out as exact zeros; complex x is refused.
    """
    # Every primal prox calls this, so a bare compare, not check_real.
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    x = real_array(x, "x")
    out = np.abs(x)
    out -= beta
    np.maximum(out, 0.0, out=out)
    out *= np.sign(x)
    return out


class LassoProblem(SaddleProblem):
    problem_id = "lasso"

    def __init__(self, A, b, lam):
        self.lam = check_real("lam", lam, positive=True)
        self.operator = DenseOperator(A)
        self.m, self.n = self.operator.rows, self.operator.cols
        self.b = check_vector(check_finite(b, "b"), self.m, "b")
        s, op = _scaled(self.operator)
        self.op_norm = float(np.sqrt(np.max(op.row_norms_sq()))) / s
        if self.op_norm == 0.0:
            raise ValueError("A has operator norm 0 (all zeros): no step size exists")
        self.geom_x = Quadratic(1.0)
        self.geom_y = Quadratic(float(self.m))
        self.gamma_h_star = 1.0

    def primal_prox(self, aty, x_bar, tau):
        u = tau * aty
        return shrink1(np.subtract(x_bar, u, out=u), self.lam * tau)

    def dual_prox(self, ax, y_bar, sigma):
        return self.geom_y.step(y_bar, ax - self.b, sigma, 1.0 + self.gamma_h_star * sigma)

    def objective(self, x):
        r = self.operator.apply(x) - self.b
        return float(self.lam * np.sum(np.abs(x)) + 0.5 / self.m * (r @ r))

    def default_init(self, seed=0):
        """x0 = 0 and y0 = b; ``seed`` is unused."""
        return np.zeros(self.n), self.b.copy()


def lasso_optimality_residual(problem, x, y):
    """Distance from the pair of optimality conditions.

    Returns ||m y - (A x - b)||_2 plus the worst subgradient violation:
    |[A^T y]_j + lam sign(x_j)| on the support and max(|[A^T y]_j| - lam, 0)
    off it.
    """
    x = check_vector(x, problem.n, "x")
    y = check_vector(y, problem.m, "y")
    r_fit = float(np.linalg.norm(problem.m * y - (problem.operator.apply(x) - problem.b)))
    aty = problem.operator.adjoint_apply(y)
    on = x != 0.0
    viol = np.maximum(np.abs(aty) - problem.lam, 0.0)
    viol[on] = np.abs(aty[on] + problem.lam * np.sign(x[on]))
    r_sub = float(np.max(viol)) if viol.size else 0.0
    return r_fit + r_sub


solve_lasso = solve
