"""Independent numerical oracles used across the test suite.

Each oracle minimizes a defining objective directly (scipy BFGS on smooth
reparameterizations, golden-section search for the scalar nonsmooth case,
bisection for the projection threshold) and never reuses the closed-form
update it is checking. The ``*_reference`` functions are the exception: they
keep the plain formulas (one fresh array per operation) of helpers that the
solvers compute in place, and those helpers must match them bit for bit.
The ``*_prox_reference`` functions keep the prox bodies each problem wrote
out before its geometry's ``step`` took them over, with the same helpers;
every prox, and so every ``step``, must match them bit for bit.
"""

import numpy as np
from scipy import optimize

from nlpdhg.bregman import logit, sigmoid, softmax


def softmax_reference(u):
    """Shifted softmax written out with a fresh array per step; the in-place
    ``bregman.softmax`` must agree with it bit for bit."""
    u = u - np.max(u)
    e = np.exp(u)
    return e / e.sum()


def shrink1_reference(x, beta):
    """Soft threshold as sign(x) * max(|x| - beta, 0), one fresh array per
    step; the in-place ``shrink1`` must agree with it bit for bit."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - beta, 0.0)


def sigmoid_reference(w):
    """Both logistic branches over the whole vector, picked by sign with
    ``np.where``; ``bregman.sigmoid`` must agree with it bit for bit."""
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ew = np.exp(w)
        return np.where(w >= 0, 1.0 / (1.0 + np.exp(-w)), ew / (1.0 + ew))


def softplus_reference(t):
    """log(1 + exp(t)) as two ``np.where`` branches, t + log1p(exp(-|t|))
    for t > 0 and log1p(exp(-|t|)) otherwise; ``logreg._softplus`` must
    agree with it bit for bit."""
    return np.where(t > 0, t + np.log1p(np.exp(-np.abs(t))), np.log1p(np.exp(-np.abs(t))))


def game_primal_prox_reference(aty, x_bar, tau, lam):
    t = np.log(x_bar)
    t -= tau * aty
    t /= 1.0 + lam * tau
    return softmax(t)


def game_dual_prox_reference(ax, y_bar, sigma, lam):
    t = np.log(y_bar)
    t += sigma * ax
    t /= 1.0 + lam * sigma
    return softmax(t)


def logreg_primal_prox_reference(aty, x_bar, tau):
    with np.errstate(divide="ignore"):
        t = np.log(x_bar)
    t -= tau * aty
    return softmax(t)


def logreg_dual_prox_reference(ax, y_bar, sigma, m):
    w_bar = logit(m * np.asarray(y_bar, dtype=float))
    c = 4.0 * m * sigma
    w = c * ax
    w += w_bar
    w /= 1.0 + c
    y = sigmoid(w)
    y /= m
    return y


def lasso_dual_prox_reference(ax, y_bar, sigma, b, m):
    v = ax - b
    v *= sigma
    v /= m
    v += y_bar
    v /= 1.0 + sigma
    return v


def quadratic_primal_prox_reference(aty, x_bar, tau, c, gamma_g):
    grad_lin = c + aty
    return (x_bar - tau * grad_lin) / (1.0 + gamma_g * tau)


def quadratic_dual_prox_reference(ax, y_bar, sigma, d, gamma_h_star):
    return (y_bar + sigma * (ax - d)) / (1.0 + gamma_h_star * sigma)


def rel_change_reference(new, old):
    """||new - old|| / ||new|| (plain ||new - old|| when new = 0) through
    ``np.linalg.norm``; ``engine._rel_change`` must agree bit for bit."""
    denom = np.linalg.norm(new)
    if denom == 0.0:
        return float(np.linalg.norm(new - old))
    return float(np.linalg.norm(new - old) / denom)


def entropy_prox_oracle(x_bar, cost, t, lam=0.0):
    """argmin over the simplex of lam*sum(x log x) + <cost, x> + KL(x, x_bar)/t.

    Minimized over the softmax chart u -> softmax(u) with an analytic
    gradient, which keeps the iterates interior and is independent of the
    power-weighted closed form.
    """
    x_bar = np.asarray(x_bar, dtype=float)
    cost = np.asarray(cost, dtype=float)

    def fungrad(u):
        p = softmax_reference(u)
        val = lam * np.sum(p * np.log(p)) + cost @ p + np.sum(p * np.log(p / x_bar)) / t
        g = lam * (1.0 + np.log(p)) + cost + (np.log(p / x_bar) + 1.0) / t
        return val, p * (g - p @ g)

    res = optimize.minimize(fungrad, np.log(x_bar), jac=True, method="BFGS",
                            options={"gtol": 1e-13, "maxiter": 2000})
    return softmax_reference(res.x)


def binary_entropy_prox_oracle(y_bar, z, sigma, m):
    """argmax over (0, 1/m)^m of <y, z> - psi(y) - D_{psi/4m}(y, y_bar)/sigma.

    Minimized over the sigmoid chart w -> sigmoid(w)/m; the objective is
    evaluated directly from its definition.
    """
    y_bar = np.asarray(y_bar, dtype=float)
    z = np.asarray(z, dtype=float)
    s_bar = m * y_bar
    w_bar = np.log(s_bar) - np.log1p(-s_bar)

    def fungrad(w):
        s = 1.0 / (1.0 + np.exp(-w))  # = m*y
        y = s / m
        psi = np.sum(s * np.log(s) + (1.0 - s) * np.log1p(-s)) / m
        div = (
            np.sum(s * np.log(s / s_bar) + (1.0 - s) * np.log((1.0 - s) / (1.0 - s_bar)))
            / (4.0 * m * m)
        )
        val = -z @ y + psi + div / sigma
        logit = np.log(s) - np.log1p(-s)
        grad_y = -z + logit + (logit - w_bar) / (4.0 * m * sigma)
        return val, grad_y * s * (1.0 - s) / m

    res = optimize.minimize(fungrad, w_bar, jac=True, method="BFGS",
                            options={"gtol": 1e-13, "maxiter": 2000})
    s = 1.0 / (1.0 + np.exp(-res.x))
    return s / m


def euclidean_prox_oracle(fungrad, x0):
    """Unconstrained smooth minimization from (value, gradient) callables.

    BFGS on numerical gradients localizes minima only to sqrt(eps), so the
    defining objective must supply its analytic gradient.
    """
    res = optimize.minimize(fungrad, x0, jac=True, method="BFGS",
                            options={"gtol": 1e-13, "maxiter": 2000})
    return res.x


def shrink1_scalar_oracle(v, beta):
    """argmin of 0.5 (x - v)^2 + beta |x| by bisection on the subgradient.

    Function-value-only search cannot localize a smooth minimum beyond
    sqrt(eps), so the minimizer is pinned by the sign change of
    g(x) = x - v + beta sign(x) instead; the kink at zero absorbs the case
    where the one-sided limits straddle zero.
    """

    def grad(x):
        return x - v + beta * np.sign(x)

    if grad(-1e-15) <= 0.0 <= grad(1e-15):
        return 0.0
    lo, hi = -abs(v) - beta - 1.0, abs(v) + beta + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if grad(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def l1_projection_bisection_oracle(v, radius, iters=200):
    """Projection threshold found by bisection on theta."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    lo, hi = 0.0, a.max()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - theta, 0.0)
