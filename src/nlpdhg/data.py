"""Seeded synthetic data generators.

Every generator derives independent child streams from one root
``numpy.random.SeedSequence`` (PCG64), one stream per tensor, so each tensor
is bitwise reproducible for a given seed regardless of how the others are
consumed. Streams are spawned in a fixed documented order.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gen_logreg_data", "gen_game_data", "gen_lasso_data"]


def gen_logreg_data(m, d, seed):
    """Classification data with a sparse planted coefficient vector.

    Streams (in spawn order): features, support, label noise. Features are
    iid standard Gaussian; the planted vector has ceil(0.01 d) coefficients
    equal to 10 on a random support and zeros elsewhere; labels are the sign
    of the margin plus standard normal noise (sign(0) counts as +1). Returns
    (B, v_true, labels) where row i of B is -labels_i * features_i. B is the
    features buffer itself, negated by label in place, so generation holds
    one m x d matrix.
    """
    if m < 1 or d < 1:
        raise ValueError(f"m and d must be >= 1, got {m}, {d}")
    s_feat, s_supp, s_noise = np.random.SeedSequence(seed).spawn(3)
    u = np.random.default_rng(s_feat).standard_normal((m, d))
    k = math.ceil(0.01 * d)
    support = np.random.default_rng(s_supp).choice(d, size=k, replace=False)
    v_true = np.zeros(d)
    v_true[support] = 10.0
    xi = np.random.default_rng(s_noise).standard_normal(m)
    labels = np.where(u @ v_true + xi >= 0.0, 1.0, -1.0)
    u *= -labels[:, None]
    return u, v_true, labels


def gen_game_data(m, n, seed):
    """Payoff matrix with iid uniform [-1, 1] entries."""
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got {m}, {n}")
    (s_payoff,) = np.random.SeedSequence(seed).spawn(1)
    return np.random.default_rng(s_payoff).uniform(-1.0, 1.0, size=(m, n))


def gen_lasso_data(m, n, sparsity, noise, seed):
    """Regression data b = A x_true + noise * xi with a +-1 sparse truth.

    Streams (in spawn order): features, support, signs, noise. ``sparsity``
    is the number of nonzero entries of x_true (0 leaves b pure noise).
    Returns (A, b, x_true).
    """
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got {m}, {n}")
    if not 0 <= sparsity <= n:
        raise ValueError(f"sparsity must lie in [0, {n}], got {sparsity}")
    s_feat, s_supp, s_sign, s_noise = np.random.SeedSequence(seed).spawn(4)
    A = np.random.default_rng(s_feat).standard_normal((m, n))
    x_true = np.zeros(n)
    if sparsity > 0:
        support = np.random.default_rng(s_supp).choice(n, size=sparsity, replace=False)
        signs = np.random.default_rng(s_sign).choice([-1.0, 1.0], size=sparsity)
        x_true[support] = signs
    b = A @ x_true + noise * np.random.default_rng(s_noise).standard_normal(m)
    return A, b, x_true
