"""Dense and structured linear operators with a cheap operator-norm menu.

Besides a plain dense matrix, a ``ScaledConcat`` operator represents
A = scale * (B | -B) implicitly: it applies B once to the difference of the
two halves of the input instead of materializing the concatenation.

Norms:

* ``norm_1_2``  -- maximum l2 norm of a column (l1 -> l2 induced norm), O(mn)
* ``norm_1_inf`` -- entry of largest magnitude (l1 -> linf induced norm), O(mn)
* ``norm_2_2``  -- largest singular value via power iteration on A^T A

All operators are immutable and their apply/adjoint methods are pure.
Because of that, a dense operator keeps max_ij |A_ij| from the scan that
validates its matrix: one ``max`` and one ``min`` reduction prove every
entry finite and give the entry of largest magnitude, so ``norm_1_inf``
reads a cached number and never copies or rescans the matrix. Complex data
is refused (``checks.real_array``), as are a bad ``ScaledConcat`` scale and
``norm_2_2`` iteration cap (``checks.check_real``, ``checks.check_count``).

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


def _checked_max_abs(a, name):
    """max |a_ij|, raising unless every entry of ``a`` is finite. One ``max``
    and one ``min`` reduction do both: neither overflows, an infinity is an
    extreme and a NaN propagates through either, so both are finite exactly
    when every entry is. ``+ 0.0`` folds a -0.0 to +0.0, as ``np.abs``
    would. It is not ``checks.check_finite``, whose sum yields no max."""
    hi, lo = float(a.max()), float(a.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return max(hi, -lo) + 0.0


class DenseOperator:
    """A dense m x n matrix with apply/adjoint actions."""

    def __init__(self, matrix):
        a = real_array(matrix, "matrix")
        if a.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("empty operator")
        self._max_abs = _checked_max_abs(a, "matrix")
        self.matrix = a
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
        b = check_finite(base, "base")
        if b.ndim != 2 or b.size == 0:
            raise ValueError(f"base must be a non-empty 2-d matrix, got shape {b.shape}")
        self.base = b
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

    The start vector is the normalized all-ones vector, so the estimate is
    deterministic. Convergence is declared when successive Rayleigh quotients
    differ by at most 1e-10 relatively, within ``max_iters`` iterations. If
    A 1 = 0 (rock-paper-scissors), it restarts once from the basis vector of
    the largest column; 0.0 means every column has norm 0. A start merely
    orthogonal to the top singular vector converges to a lower one.
    """
    check_count("max_iters", max_iters, 1)
    n = op.cols
    v = np.full(n, 1.0 / np.sqrt(n))
    rho_prev = None
    restarted = False
    for _ in range(max_iters):
        w = op.adjoint_apply(op.apply(v))
        rho = float(v @ w)
        if rho <= 0.0:
            # v is (numerically) in the nullspace of A^T A.
            col = op.column_norms_sq()
            if restarted or col.max() == 0.0:
                return 0.0
            restarted, rho_prev, v = True, None, np.eye(1, n, col.argmax())[0]
            continue
        if rho_prev is not None and abs(rho - rho_prev) <= 1e-10 * rho:
            return math.sqrt(rho)
        rho_prev = rho
        # w / ||w||; w is a fresh contiguous vector, for which sqrt(w . w)
        # is exactly what np.linalg.norm computes.
        w /= math.sqrt(w.dot(w))
        v = w
    raise PowerIterationError(
        f"power iteration did not converge in {max_iters} iterations",
        last_estimate=math.sqrt(max(rho, 0.0)),
    )


def save_matrix_csv(path, matrix):
    """Write a dense matrix as CSV: one row per line, comma-separated decimals."""
    a = np.asarray(matrix, dtype=float)
    with open(path, "w") as fh:
        for row in np.atleast_2d(a):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_matrix_csv(path):
    with open(path) as fh:
        rows = [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
    return np.array(rows, dtype=float)
