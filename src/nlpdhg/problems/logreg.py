"""l1-constrained logistic regression on the simplex lift.

The ball constraint ||v||_1 <= lam is rewritten through v = lam (I | -I) x
with x on the unit simplex of dimension n = 2d, turning the problem into

    min_{x in simplex}  (1/m) sum_i log(1 + exp([A x]_i)),   A = lam (B | -B),

where row i of B is -b_i u_i (feature vector times label, negated). The
saddle-point form pairs the simplex (negative-entropy geometry) with a dual
box (0, 1/m)^m carrying the averaged-binary-entropy geometry phi_Y of scale
1/(4m). The dual part is h* = 4m phi_Y, so gamma_h_star = 4m, which enables
the accelerated dual schedule, and both proxes are one geometry ``step``
(see ``SaddleProblem``). The operator norm is the max column l2 norm.
The inherited ``schedule()`` picks that schedule from the two (tau0 =
2m/||A||_{1,2}^2, so sigma0 = 1/(2m)); ``solve_l1_logreg`` (``engine.solve``)
runs it.
"""

from __future__ import annotations

import numpy as np

from ..bregman import BinaryEntropyAverage, NegativeEntropy, sigmoid
from ..checks import check_real, real_array
from ..engine import SaddleProblem, solve
from ..operators import ScaledConcat, norm_1_2

__all__ = [
    "L1LogRegProblem",
    "l1logreg_dual_residual",
    "recover_v",
    "support_from_dual",
    "solve_l1_logreg",
]


def _softplus(t):
    """log(1 + exp(t)) = max(t, 0) + log1p(exp(-|t|)), which never overflows."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


class L1LogRegProblem(SaddleProblem):
    problem_id = "l1-logreg"

    def __init__(self, B, lam):
        B = real_array(B, "B")
        if B.ndim != 2:
            raise ValueError(f"B must be an m x d matrix, got shape {B.shape}")
        self.lam = check_real("lam", lam, positive=True)
        self.B = B
        self.m, self.d = B.shape
        self.n = 2 * self.d
        self.operator = ScaledConcat(B, self.lam)
        self.op_norm = norm_1_2(self.operator)
        if self.op_norm == 0.0:
            raise ValueError("B has operator norm 0 (all zeros): no step size exists")
        self.geom_x = NegativeEntropy(self.n)
        self.geom_y = BinaryEntropyAverage(self.m)
        self.gamma_h_star = 4.0 * self.m

    def primal_prox(self, aty, x_bar, tau):
        return self.geom_x.step(x_bar, aty, -tau, 1.0 + self.gamma_g * tau)

    def dual_prox(self, ax, y_bar, sigma):
        return self.geom_y.step(y_bar, ax, sigma, 1.0 + self.gamma_h_star * sigma)

    def objective_v(self, v):
        """Primal objective of the original ball-constrained problem at v."""
        return float(np.mean(_softplus(self.B @ v)))

    def default_init(self, seed=0):
        """The simplex barycentre and the dual box centre; ``seed`` is unused."""
        x0 = np.full(self.n, 1.0 / self.n)
        y0 = np.full(self.m, 1.0 / (2.0 * self.m))
        return x0, y0


def recover_v(x, lam):
    """Map a simplex point back to the l1 ball: v = lam (I | -I) x."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] % 2 != 0:
        raise ValueError(f"simplex point must have even dimension, got {x.shape[0]}")
    d = x.shape[0] // 2
    return lam * (x[:d] - x[d:])


def l1logreg_dual_residual(problem, x, y):
    """||y - phi(A x)||_2 where phi is the componentwise sigmoid-over-m map;
    vanishes at a saddle point."""
    target = sigmoid(problem.operator.apply(np.asarray(x, dtype=float))) / problem.m
    return float(np.linalg.norm(np.asarray(y, dtype=float) - target))


def support_from_dual(problem, y, tol):
    """Indices that can carry primal mass: within tol of max_j [-A^T y]_j."""
    check_real("tol", tol, positive=False)
    s = -problem.operator.adjoint_apply(np.asarray(y, dtype=float))
    return np.flatnonzero(s >= s.max() - tol)


solve_l1_logreg = solve
