"""Closed-form duality-gap certificates for the three benchmarked problems.

Each ``*_gap`` returns ``(gap, primal)``: the primal value P at the returned
primal point minus the dual value D at the returned (or rescaled) dual point,
and P itself. By weak duality the gap is nonnegative up to roundoff at any
feasible pair, and it bounds the primal suboptimality, so it certifies a
solve without trusting the solver's own stopping rule.

These are computed here, independently of ``nlpdhg``, from the problem data
(``B``, ``payoff``, ``A``, ``b``, ``lam``); only plain numpy is used.

``check`` turns one solver report into a verdict: a solve fails when it
reports ``converged=False``, returns a non-finite or out-of-domain point, or
its gap is below minus the roundoff allowance.
"""

from __future__ import annotations

import numpy as np

# Gap values down to -ROUNDOFF * max(1, |P|) count as zero. The three gaps
# are sums of O(m + n) terms of magnitude O(|P| + |D|), so double-precision
# roundoff is far below this.
ROUNDOFF = 1e-10

# Simplex points must sum to one within this, and box points may exceed the
# bound by this much relative to it.
DOMAIN_TOL = 1e-9


def _xlogx(s):
    """s log s elementwise with the convention 0 log 0 = 0."""
    s = np.asarray(s, dtype=float)
    safe = np.where(s > 0.0, s, 1.0)
    return np.where(s > 0.0, s * np.log(safe), 0.0)


def _softplus(t):
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _logsumexp(t):
    top = np.max(t)
    return float(top + np.log(np.sum(np.exp(t - top))))


def _simplex_ok(x):
    return bool(np.all(x >= 0.0) and abs(float(np.sum(x)) - 1.0) <= DOMAIN_TOL)


def logreg_gap(B, lam, x, y):
    """Gap of l1-logistic regression on the simplex lift, A = lam (B | -B).

    P(x) = (1/m) sum_i softplus((A x)_i)
    D(y) = min_j (A^T y)_j - (1/m) sum_i [s_i log s_i + (1 - s_i) log(1 - s_i)],
    with s = m y in [0, 1]^m.
    """
    m, d = B.shape
    z = lam * (B @ (x[:d] - x[d:]))
    primal = float(np.mean(_softplus(z)))
    bty = lam * (B.T @ y)
    s = m * y
    h_star = float(np.sum(_xlogx(s) + _xlogx(1.0 - s))) / m
    dual = float(min(np.min(bty), np.min(-bty))) - h_star
    return primal - dual, primal


def logreg_domain_ok(B, x, y):
    m, d = B.shape
    return (
        x.shape == (2 * d,)
        and y.shape == (m,)
        and _simplex_ok(x)
        and bool(np.all(y >= 0.0) and np.all(m * y <= 1.0 + DOMAIN_TOL))
    )


def game_gap(payoff, lam, x, y):
    """Gap of the entropy-regularized matrix game, H(p) = sum p log p.

    lam H(x) + lam logsumexp(A x / lam) + lam H(y) + lam logsumexp(-A^T y / lam);
    the first two terms are P(x).
    """
    hx = float(np.sum(_xlogx(x)))
    hy = float(np.sum(_xlogx(y)))
    primal = lam * hx + lam * _logsumexp(payoff @ x / lam)
    minus_dual = lam * hy + lam * _logsumexp(-(payoff.T @ y) / lam)
    return primal + minus_dual, primal


def game_domain_ok(payoff, x, y):
    m, n = payoff.shape
    return x.shape == (n,) and y.shape == (m,) and _simplex_ok(x) and _simplex_ok(y)


def lasso_gap(A, b, lam, x):
    """Gap of the Lasso at x and the rescaled residual dual point.

    P(x) = lam ||x||_1 + ||A x - b||^2 / (2m). The dual point is
    y = s (A x - b) / m with s = min(1, lam / ||A^T (A x - b) / m||_inf),
    which makes ||A^T y||_inf <= lam, and D(y) = -<y, b> - (m/2) ||y||^2.
    """
    m = A.shape[0]
    r = A @ x - b
    primal = float(lam * np.sum(np.abs(x)) + 0.5 / m * (r @ r))
    y = r / m
    corr = float(np.max(np.abs(A.T @ y)))
    if corr > lam:
        y = y * (lam / corr)
    dual = float(-(y @ b) - 0.5 * m * (y @ y))
    return primal - dual, primal


def lasso_domain_ok(A, x):
    return x.shape == (A.shape[1],)


def check(report, gap_fn, domain_fn):
    """Certify one solver report.

    ``gap_fn(x, y)`` returns (gap, primal) and ``domain_fn(x, y)`` whether
    the pair lies in the problem's domain. Returns a dict with ``ok``, the
    relative gap gap / max(1, |P|) (NaN when it could not be computed) and,
    on failure, a one-line ``reason``.
    """
    x, y = report.x, report.y
    if x is None or y is None:
        return {"ok": False, "gap_rel": float("nan"), "reason": "no point returned"}
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return {"ok": False, "gap_rel": float("nan"), "reason": "non-finite point"}
    if not domain_fn(x, y):
        return {"ok": False, "gap_rel": float("nan"), "reason": "point outside the domain"}
    gap, primal = gap_fn(x, y)
    scale = max(1.0, abs(primal))
    gap_rel = gap / scale
    if not np.isfinite(gap_rel):
        return {"ok": False, "gap_rel": float("nan"), "reason": "non-finite gap"}
    if gap_rel < -ROUNDOFF:
        return {"ok": False, "gap_rel": gap_rel, "reason": f"negative gap {gap_rel:.3e}"}
    if not report.converged:
        return {"ok": False, "gap_rel": gap_rel, "reason": f"not converged after {report.k} iterations"}
    return {"ok": True, "gap_rel": gap_rel, "reason": None}
