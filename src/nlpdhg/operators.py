"""Dense and structured linear operators with a cheap operator-norm menu.

Besides a plain dense matrix, a ``ScaledConcat`` operator represents
A = scale * (B | -B) implicitly: it applies B once to the difference of the
two halves of the input instead of materializing the concatenation.

Norms:

* ``norm_1_2``  -- maximum l2 norm of a column (l1 -> l2 induced norm), O(mn)
* ``norm_1_inf`` -- entry of largest magnitude (l1 -> linf induced norm), O(mn)
* ``norm_2_2``  -- largest singular value via power iteration on A^T A

An operator keeps the caller's matrix without copying it, so the matrix
must not change after construction; apply/adjoint methods are pure. A dense
operator keeps max_ij |A_ij| from the scan that validates its matrix, so
``norm_1_inf`` and ``norm_2_2`` read it without a copy or another scan.
Complex data is refused (``checks.real_array``), as are a bad
``ScaledConcat`` scale and ``norm_2_2`` iteration cap
(``checks.check_real``, ``checks.check_count``).

Every solver multiplies by its problem matrix through an operator's
``apply`` and ``adjoint_apply``, so counting or timing those two methods
covers every solver's products. The one exception is the independent test
oracle ``baselines.prox_gradient_lasso``, which multiplies its raw arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import check_count, check_finite, check_real, real_array

__all__ = [
    "DenseOperator",
    "ScaledConcat",
    "norm_1_2",
    "norm_1_inf",
    "norm_2_2",
    "PowerIterationError",
    "load_matrix_csv",
    "save_matrix_csv",
]


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate


def _matrix(value, name):
    """``real_array(value, name)``, refusing all but a non-empty 2-d array."""
    a = real_array(value, name)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-d matrix, got shape {a.shape}")
    return a


def _checked_max_abs(a, name):
    """max |a_ij|, raising unless every entry of ``a`` is finite. An infinity
    is an extreme and a NaN propagates, so one ``max`` and one ``min`` (which
    cannot overflow) are finite exactly when every entry is; a sum gives no
    max. ``+ 0.0`` folds a -0.0 to +0.0, as ``np.abs`` would."""
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return max(hi, -lo) + 0.0


class DenseOperator:
    """A dense m x n matrix with apply/adjoint actions."""

    def __init__(self, matrix):
        self.matrix = a = _matrix(matrix, "matrix")
        self._max_abs = _checked_max_abs(a, "matrix")
        self._matrix_t = a.T
        self.rows, self.cols = a.shape

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(f"expected input of shape ({self.cols},), got {x.shape}")
        return self.matrix.dot(x)

    def adjoint_apply(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rows,):
            raise ValueError(f"expected input of shape ({self.rows},), got {y.shape}")
        return self._matrix_t.dot(y)

    def column_norms_sq(self):
        return np.einsum("ij,ij->j", self.matrix, self.matrix)

    def row_norms_sq(self):
        return np.einsum("ij,ij->i", self.matrix, self.matrix)

    def max_abs_entry(self):
        return self._max_abs


class ScaledConcat:
    """A = scale * (B | -B), applied without materializing the concatenation.

    apply(x) = scale * B (x_plus - x_minus) where x = (x_plus, x_minus),
    adjoint_apply(y) = scale * (B^T y, -B^T y).
    """

    def __init__(self, base, scale):
        self.scale = check_real("scale", scale, positive=True)
        self.base = b = check_finite(_matrix(base, "base"), "base")
        self._base_t = b.T
        self.rows, self._d = b.shape
        self.cols = 2 * self._d

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(f"expected input of shape ({self.cols},), got {x.shape}")
        d = self._d
        out = self.base.dot(x[:d] - x[d:])
        out *= self.scale
        return out

    def adjoint_apply(self, y):
        y = np.asarray(y, dtype=float)
        if y.shape != (self.rows,):
            raise ValueError(f"expected input of shape ({self.rows},), got {y.shape}")
        # scale * B^T y into the first half, its negation into the second.
        out = np.empty(self.cols)
        bty = out[: self._d]
        self._base_t.dot(y, out=bty)
        bty *= self.scale
        np.negative(bty, out=out[self._d :])
        return out

    def column_norms_sq(self):
        # Columns of -B have the same norms as those of B.
        base_sq = self.scale**2 * np.einsum("ij,ij->j", self.base, self.base)
        return np.concatenate([base_sq, base_sq])

    def max_abs_entry(self):
        return self.scale * _checked_max_abs(self.base, "base")


def norm_1_2(op):
    """Maximum l2 norm of a column: max_j sqrt(sum_i A_ij^2)."""
    return float(np.sqrt(np.max(op.column_norms_sq())))


def norm_1_inf(op):
    """Entry of largest magnitude: max_ij |A_ij|."""
    return op.max_abs_entry()


def norm_2_2(op, max_iters=5000):
    """Largest singular value estimated by power iteration on A^T A.

    It starts from the normalized all-ones vector, so it is deterministic,
    and stops once successive Rayleigh quotients differ by at most 1e-10
    relatively, within ``max_iters`` iterations. A zero operator gives 0.0 at
    once. If A 1 = 0 (rock-paper-scissors), it restarts from a fixed-seed
    Gaussian unit vector, which almost surely has a component along the top
    right singular vector; a basis vector may not (a start orthogonal to it
    converges to a lower singular value). The restart counts against
    ``max_iters``."""
    check_count("max_iters", max_iters, 1)
    top = op.max_abs_entry()
    if top == 0.0:
        return 0.0
    # Outside [2^-100, 2^100], a product of max |A_ij| could under- or overflow:
    # iterate on s A, s the power of two putting it in [1/2, 1), clamped so s v
    # stays normal. Exact, so no bit changes; inside, s = 1 saves two scalings.
    s = 1.0
    if not 2.0**-100 <= top <= 2.0**100:
        s = math.ldexp(1.0, min(max(-math.frexp(top)[1], -1000), 1000))
    n = op.cols
    v = np.full(n, 1.0 / np.sqrt(n))
    rho_prev = None
    for _ in range(max_iters):
        w = op.adjoint_apply(op.apply(v) if s == 1.0 else s * op.apply(s * v))
        rho = float(v @ w)
        if rho <= 0.0:
            # v is (numerically) in the nullspace of A^T A.
            v = np.random.default_rng(0).standard_normal(n)
            v /= math.sqrt(v.dot(v))
            rho_prev = None
            continue
        if rho_prev is not None and abs(rho - rho_prev) <= 1e-10 * rho:
            return math.sqrt(rho) / s
        rho_prev = rho
        # w / ||w||; w is a fresh contiguous vector, for which sqrt(w . w)
        # is exactly what np.linalg.norm computes.
        w /= math.sqrt(w.dot(w))
        v = w
    raise PowerIterationError(
        f"power iteration did not converge in {max_iters} iterations",
        last_estimate=math.sqrt(max(rho, 0.0)) / s,
    )


def save_matrix_csv(path, matrix):
    """Write a dense matrix as CSV: one row per line, shortest round-trip decimals."""
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)), delimiter=",", fmt="%s")


def load_matrix_csv(path):
    with open(path) as fh:
        rows = [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
    return np.array(rows, dtype=float)
