"""Seeded synthetic data generators.

Every generator draws each tensor from its own PCG64 stream, so each tensor
is bitwise reproducible for a given seed regardless of how the others are
consumed. The streams are the first k children of
``numpy.random.SeedSequence(seed)`` in a fixed documented order, built
directly as ``SeedSequence(seed, spawn_key=(i,))``: that is what
``SeedSequence(seed).spawn(k)[i]`` returns, without the parent.

Sizes, seeds and the sparsity go through ``checks.check_count`` and the noise
level through ``checks.check_real``, before any stream is built.
"""

from __future__ import annotations

import math

import numpy as np

from .checks import check_count, check_real

__all__ = ["gen_logreg_data", "gen_game_data", "gen_lasso_data"]


def _streams(seed, k):
    """Generators on the first ``k`` children of ``SeedSequence(seed)``."""
    check_count("seed", seed, 0)
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,))) for i in range(k)]


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
    check_count("m", m, 1)
    check_count("d", d, 1)
    r_feat, r_supp, r_noise = _streams(seed, 3)
    u = r_feat.standard_normal((m, d))
    k = math.ceil(0.01 * d)
    support = r_supp.choice(d, size=k, replace=False)
    v_true = np.zeros(d)
    v_true[support] = 10.0
    xi = r_noise.standard_normal(m)
    labels = np.where(u @ v_true + xi >= 0.0, 1.0, -1.0)
    u *= -labels[:, None]
    return u, v_true, labels


def gen_game_data(m, n, seed):
    """Payoff matrix with iid uniform [-1, 1] entries."""
    check_count("m", m, 1)
    check_count("n", n, 1)
    (r_payoff,) = _streams(seed, 1)
    # uniform(-1, 1) computes -1 + 2u from the same doubles u that random()
    # returns; 2u is exact, so mapping them in place gives the same bits
    # without numpy's per-element uniform loop.
    a = r_payoff.random((m, n))
    a *= 2.0
    a -= 1.0
    return a


def gen_lasso_data(m, n, sparsity, noise, seed):
    """Regression data b = A x_true + noise * xi with a +-1 sparse truth.

    Streams (in spawn order): features, support, signs, noise. ``sparsity``
    is the number of nonzero entries of x_true (0 leaves b pure noise).
    Returns (A, b, x_true).
    """
    check_count("m", m, 1)
    check_count("n", n, 1)
    check_count("sparsity", sparsity, 0)
    # A relation between two checked counts, so it is tested here.
    if sparsity > n:
        raise ValueError(f"sparsity must lie in [0, {n}], got {sparsity}")
    check_real("noise", noise, positive=False)
    r_feat, r_supp, r_sign, r_noise = _streams(seed, 4)
    A = r_feat.standard_normal((m, n))
    x_true = np.zeros(n)
    if sparsity > 0:
        support = r_supp.choice(n, size=sparsity, replace=False)
        signs = r_sign.choice([-1.0, 1.0], size=sparsity)
        x_true[support] = signs
    b = A @ x_true + noise * r_noise.standard_normal(m)
    return A, b, x_true
