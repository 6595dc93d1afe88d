"""Distance-generating functions and their Bregman divergences.

Three geometries are provided:

* ``Quadratic(scale)`` -- phi(x) = (scale/2) ||x||_2^2 on all of R^n.
* ``NegativeEntropy(dim)`` -- phi(x) = sum_j x_j log x_j on the unit simplex.
  Its divergence is the Kullback-Leibler divergence.
* ``BinaryEntropyAverage(m, scale)`` -- scale times the average of m binary
  entropy terms, defined on the box [0, 1/m]^m (interior (0, 1/m)^m).

A geometry is immutable after construction and all of its operations are
pure functions, so instances are safe to share between threads. They share
no base class; callers use ``value``, ``gradient``, ``divergence``,
``validate_point`` and ``step`` by name. ``step(x_bar, g, coef, damping)``,
every prox's one call, gives the fresh argmin of (damping - 1) phi(x) -
coef <g, x> + D(x, x_bar) in the geometry's own phi, unchecked: the x with
damping grad phi(x) = grad phi(x_bar) + coef g (up to a constant on the
simplex).
``sigmoid`` is one ``np.where`` over the whole array: the bits of a masked
fill of its two stable branches, without the costlier gathers and scatters.
"""

from __future__ import annotations

import numpy as np

from .checks import check_count, check_finite, check_real

__all__ = [
    "Quadratic",
    "NegativeEntropy",
    "BinaryEntropyAverage",
    "three_point_check",
    "softmax",
    "sigmoid",
    "logit",
]

# Interior-required arguments below this floor raise rather than clamp, so
# geometry misuse surfaces instead of silently producing garbage.
EPS_DOM = 1e-300

# Tolerance for "sums to one" checks on simplex points. Iterates produced by
# the solvers stay within ~1e-12 of the simplex; the slack also admits the
# small off-simplex perturbations finite-difference probes need.
_SIMPLEX_ATOL = 1e-4


def _asvector(v, name):
    v = check_finite(v, name)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


def _xlogx(v):
    """sum v_j log v_j with the continuous extension 0 log 0 = 0."""
    out = np.zeros_like(v)
    pos = v > 0.0
    out[pos] = v[pos] * np.log(v[pos])
    return float(out.sum())


def _xlogratio(a, b):
    """sum a_j log(a_j / b_j), with 0 log(0/b) = 0. Requires b > 0 where a > 0."""
    pos = a > 0.0
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])))


def softmax(t):
    """exp(t) normalized to the unit simplex: the inverse mirror map of the
    negative entropy. Shifts by max(t) first, so nothing overflows. The
    result is a fresh array.

    The shift is ``t[t.argmax()]``: an entry of t, so it equals ``t.max()``
    (a NaN anywhere is the first NaN either way, and which of tied maxima or
    of +0.0 and -0.0 it picks changes no exp). The normaliser is
    ``np.add.reduce(e, None)``, the pairwise sum ``e.sum()`` runs, called
    without numpy's Python-level ``_methods`` wrapper. Both save calls on the
    small vectors of the game proxes, and the result keeps its bits."""
    t = np.asarray(t, dtype=float)
    e = t - t[t.argmax()]
    np.exp(e, out=e)
    e /= np.add.reduce(e, None)
    return e


def sigmoid(w):
    """Componentwise 1 / (1 + exp(-w)), the inverse of ``logit``.

    With e = exp(-|w|), which never overflows, the stable branches are
    1 / (1 + e) for w >= 0 and e / (1 + e) otherwise. One ``np.where`` over
    the whole array picks between them: each entry gets the operations a
    masked fill of its branch would give it, so the same bits, without the
    fill's gathers and scatters. A NaN entry gives NaN."""
    w = np.asarray(w, dtype=float)
    e = np.exp(-np.abs(w))
    return np.where(w >= 0, 1.0, e) / (1.0 + e)


def logit(s):
    """Componentwise log(s / (1 - s)): the mirror map of the binary entropy."""
    out = np.log(s)
    out -= np.log1p(-s)
    return out


class Quadratic:
    """phi(x) = (scale/2) ||x||_2^2; divergence (scale/2) ||x - x_bar||_2^2."""

    def __init__(self, scale=1.0):
        self.scale = check_real("scale", scale, positive=True)

    def value(self, x):
        x = _asvector(x, "x")
        return 0.5 * self.scale * float(x @ x)

    def gradient(self, x):
        x = _asvector(x, "x")
        return self.scale * x

    def divergence(self, x, x_bar):
        x = _asvector(x, "x")
        x_bar = _asvector(x_bar, "x_bar")
        if x.shape != x_bar.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {x_bar.shape}")
        d = x - x_bar
        return 0.5 * self.scale * float(d @ d)

    def validate_point(self, x, interior=False):
        _asvector(x, "x")

    def step(self, x_bar, g, coef, damping):
        """(x_bar + coef g / scale) / damping."""
        t = coef * g
        t /= self.scale
        t += x_bar
        t /= damping
        return t


class NegativeEntropy:
    """phi(x) = sum_j x_j log x_j on the unit simplex.

    The divergence is computed in the log-ratio form sum x_j log(x_j/x_bar_j)
    rather than as a difference of phi values, which would cancel
    catastrophically for nearby points.
    """

    def __init__(self, dim):
        self.dim = check_count("dim", dim, 1)

    def _check(self, x, name, interior):
        x = _asvector(x, name)
        if x.shape[0] != self.dim:
            raise ValueError(f"{name} has dimension {x.shape[0]}, expected {self.dim}")
        if interior:
            if x.min() < EPS_DOM:
                raise ValueError(f"{name} is on or below the simplex boundary")
        elif x.min() < 0.0:
            raise ValueError(f"{name} has negative entries")
        total = x.sum()
        if abs(total - 1.0) > _SIMPLEX_ATOL:
            raise ValueError(f"{name} does not sum to 1 (sum = {float(total)})")
        return x

    def value(self, x):
        return _xlogx(self._check(x, "x", interior=False))

    def gradient(self, x):
        x = self._check(x, "x", interior=True)
        return 1.0 + np.log(x)

    def divergence(self, x, x_bar):
        x = self._check(x, "x", interior=False)
        x_bar = self._check(x_bar, "x_bar", interior=True)
        return _xlogratio(x, x_bar)

    def validate_point(self, x, interior=False):
        self._check(x, "x", interior)

    def step(self, x_bar, g, coef, damping):
        """softmax((log x_bar + coef g) / damping). A zero of x_bar stays 0:
        log 0 = -inf, whose warning ``engine.run`` silences."""
        t = np.log(x_bar)
        t += coef * g
        t /= damping
        return softmax(t)


class BinaryEntropyAverage:
    """scale * psi where psi averages m binary entropies of m*y_i.

    psi(y) = (1/m) sum_i [ m y_i log(m y_i) + (1 - m y_i) log(1 - m y_i) ]
    on the box [0, 1/m]^m. With scale = 1/(4m) (the default) the geometry is
    1-strongly convex with respect to the Euclidean norm, since each binary
    entropy term has second derivative m/(s(1-s)) >= 4m in s = m y_i.
    """

    def __init__(self, m, scale=None):
        self.m = check_count("m", m, 1)
        # ``step`` multiplies by 1/scale. At the default it is 4m exactly,
        # which 1/(1/(4m)) is not for every m (the first miss is m = 49).
        if scale is None:
            self.scale, self._inv_scale = 1.0 / (4.0 * self.m), 4.0 * self.m
        else:
            self.scale = check_real("scale", scale, positive=True)
            self._inv_scale = 1.0 / self.scale

    def _check(self, y, name, interior):
        y = _asvector(y, name)
        if y.shape[0] != self.m:
            raise ValueError(f"{name} has dimension {y.shape[0]}, expected {self.m}")
        s = self.m * y
        if interior:
            # min(1 - s) < EPS_DOM, as 1 - s is exact (<= 0 or >= 2**-53) near 1.
            if s.min() < EPS_DOM or s.max() >= 1.0:
                raise ValueError(f"{name} is on the boundary of the box (0, 1/m)^m")
        elif s.min() < 0.0 or s.max() > 1.0:
            raise ValueError(f"{name} lies outside the box [0, 1/m]^m")
        return y

    def value(self, y):
        y = self._check(y, "y", interior=False)
        s = self.m * y
        return self.scale / self.m * (_xlogx(s) + _xlogx(1.0 - s))

    def gradient(self, y):
        """Componentwise logit of m*y, times the scale factor."""
        y = self._check(y, "y", interior=True)
        return self.scale * logit(self.m * y)

    def divergence(self, y, y_bar):
        y = self._check(y, "y", interior=False)
        y_bar = self._check(y_bar, "y_bar", interior=True)
        s, sb = self.m * y, self.m * y_bar
        val = _xlogratio(s, sb) + _xlogratio(1.0 - s, 1.0 - sb)
        return self.scale / self.m * val

    def validate_point(self, y, interior=False):
        self._check(y, "y", interior)

    def step(self, y_bar, g, coef, damping):
        """sigmoid((logit(m y_bar) + (coef / scale) g) / damping) / m."""
        w = logit(self.m * np.asarray(y_bar, dtype=float))
        w += (coef * self._inv_scale) * g
        w /= damping
        y = sigmoid(w)
        y /= self.m
        return y


def three_point_check(geom, x, x_hat, x_prime):
    """Residual of the three-point identity; a test oracle.

    Returns |D(x, x') - D(x_hat, x') - D(x, x_hat)
             - <grad(x') - grad(x_hat), x_hat - x>|.
    Both sides are evaluated independently, so for a correct geometry the
    residual is roundoff-level (below 1e-10 relative to the terms involved).
    """
    lhs = geom.divergence(x, x_prime)
    rhs = (
        geom.divergence(x_hat, x_prime)
        + geom.divergence(x, x_hat)
        + float((geom.gradient(x_prime) - geom.gradient(x_hat)) @ (np.asarray(x_hat, float) - np.asarray(x, float)))
    )
    return abs(lhs - rhs)
