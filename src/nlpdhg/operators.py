"""Dense and structured linear operators with a cheap operator-norm menu.

Besides a plain dense matrix, a ``ScaledConcat`` operator represents
A = scale * (B | -B) implicitly: it applies B once to the difference of the
two halves of the input instead of materializing the concatenation.

Norms:

* ``norm_1_2``  -- maximum l2 norm of a column (l1 -> l2 induced norm), O(mn)
* ``norm_1_inf`` -- entry of largest magnitude (l1 -> linf induced norm), O(mn)
* ``norm_2_2``  -- largest singular value via power iteration on A^T A

An operator keeps the caller's matrix without copying it, so the matrix
must not change after construction; apply/adjoint methods are pure. Each
operator keeps max_ij |A_ij| from the scan that validates its matrix, so
the norms read it without another scan; far from 1 it sets the power of two
by which they scale a copy of the matrix (for a ``ScaledConcat``, max |B_ij|
and the scale each set their own). Complex data is refused
(``checks.real_array``; a product's vector through ``checks.check_vector``,
which scans no entry), as are a bad ``ScaledConcat`` scale and
``norm_2_2`` iteration cap (``checks.check_real``, ``checks.check_count``).

Every solver multiplies by its problem matrix through an operator's
``apply`` and ``adjoint_apply``, so counting or timing those two methods
covers every solver's products. The one exception is the independent test
oracle ``baselines.prox_gradient_lasso``, which multiplies its raw arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import check_count, check_real, check_vector, real_array

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
        return self.matrix.dot(check_vector(x, self.cols, "x"))

    def adjoint_apply(self, y):
        return self._matrix_t.dot(check_vector(y, self.rows, "y"))

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
        self.base = b = _matrix(base, "base")
        self._base_max_abs = _checked_max_abs(b, "base")
        self._max_abs = self.scale * self._base_max_abs
        self._base_t = b.T
        self.rows, self._d = b.shape
        self.cols = 2 * self._d

    def apply(self, x):
        x = check_vector(x, self.cols, "x")
        d = self._d
        out = self.base.dot(x[:d] - x[d:])
        out *= self.scale
        return out

    def adjoint_apply(self, y):
        # scale * B^T y into the first half, its negation into the second.
        out = np.empty(self.cols)
        bty = out[: self._d]
        self._base_t.dot(check_vector(y, self.rows, "y"), out=bty)
        bty *= self.scale
        np.negative(bty, out=out[self._d :])
        return out

    def column_norms_sq(self):
        # Columns of -B have the same norms as those of B.
        base_sq = self.scale**2 * np.einsum("ij,ij->j", self.base, self.base)
        return np.concatenate([base_sq, base_sq])

    def max_abs_entry(self):
        return self._max_abs


def _exponent(top, least=-1000, most=1000):
    """0 for top = 0 or in [2^-100, 2^100], where no product of two such
    numbers under- or overflows; else the e that puts 2^e top in [1/2, 1),
    clamped to [least, most] (ldexp overflows past 2^1023)."""
    if top == 0.0 or 2.0**-100 <= top <= 2.0**100:
        return 0
    return min(max(-math.frexp(top)[1], least), most)


def _scaled(op):
    """(s, an operator for s A) with s a power of two, so that a norm of
    s A over s is the norm of A and scales by powers of two bit for bit.

    A dense matrix is scaled by 2^e for e = ``_exponent(max |A_ij|)``. A
    ``ScaledConcat`` scales its two factors apart, B by 2^e and its scale by
    2^f, so that neither the square of the scale nor a column norm of B
    under- or overflows; f is clamped so that s = 2^(e + f) stays in
    [2^-1000, 2^1000]. Where the exponents are 0, s = 1.0 and the operator
    is ``op`` itself."""
    if isinstance(op, ScaledConcat):
        e = _exponent(op._base_max_abs)
        f = _exponent(op.scale, -1000 - e, 1000 - e)
        if e == f == 0:
            return 1.0, op
        scaled = ScaledConcat(math.ldexp(1.0, e) * op.base, math.ldexp(op.scale, f))
        return math.ldexp(1.0, e + f), scaled
    e = _exponent(op.max_abs_entry())
    if e == 0:
        return 1.0, op
    s = math.ldexp(1.0, e)
    return s, DenseOperator(s * op.matrix)


def norm_1_2(op):
    """Maximum l2 norm of a column: max_j sqrt(sum_i A_ij^2)."""
    s, op = _scaled(op)
    return float(np.sqrt(np.max(op.column_norms_sq()))) / s


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
    if op.max_abs_entry() == 0.0:
        return 0.0
    # Far from 1, iterate on s A (see ``_scaled``).
    s, op = _scaled(op)
    n = op.cols
    v = np.full(n, 1.0 / np.sqrt(n))
    rho_prev = None
    for _ in range(max_iters):
        w = op.adjoint_apply(op.apply(v))
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
