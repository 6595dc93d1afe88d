"""Comparison solvers: linear (Euclidean) PDHG, projected forward-backward,
FISTA, and the predictive-update / optimistic-MWU game methods.

The linear PDHG baselines pay for a largest-singular-value estimate up front
and solve nested Euclidean proximal subproblems by forward-backward
iteration; their wall time as reported here includes the norm computation,
mirroring how such baselines are usually accounted.
"""

from __future__ import annotations

import time

import numpy as np

from .bregman import sigmoid, softmax
from .engine import ErgodicAccumulator, SolveReport, _rel_change, check_stop
from .operators import DenseOperator, norm_1_inf, norm_2_2
from .problems.lasso import shrink1
from .schedules import linear_rate_params

__all__ = [
    "project_l1_ball",
    "InnerSolveError",
    "solve_linear_pdhg_logreg",
    "solve_fb_logreg",
    "solve_linear_pdhg_game",
    "fista_lasso",
    "prox_gradient_lasso",
    "pu_learning_rate",
    "omwu_learning_rate",
    "solve_game_pu",
    "solve_game_omwu",
]


class InnerSolveError(RuntimeError):
    """A nested proximal subproblem did not reach its tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def project_l1_ball(v, radius):
    """Euclidean projection onto {u : ||u||_1 <= radius}, exact.

    Sort-based threshold search, O(d log d). Inputs already inside the ball
    are returned unchanged.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.shape[0] + 1)
    k = ks[u * ks > css - radius][-1]
    theta = (css[k - 1] - radius) / k
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _fb_minimize(grad, lipschitz, u0, tol, max_iters):
    """Forward-backward (plain gradient) iteration on a smooth strongly
    convex objective; stops on absolute iterate change."""
    u = u0.copy()
    step = 1.0 / lipschitz
    for _ in range(max_iters):
        u_new = u - step * grad(u)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        if delta <= tol:
            return u
    raise InnerSolveError(
        f"inner forward-backward iteration stalled above tolerance {tol}", residual=delta
    )


def _logistic_conjugate_prox(z, sigma, m, u0, tol, max_iters):
    """argmin_u 0.5||u - z||^2 + (sigma/m) sum log(1 + exp(u_i/sigma))."""

    def grad(u):
        return u - z + sigmoid(u / sigma) / m

    lip = 1.0 + 1.0 / (4.0 * sigma * m)
    return _fb_minimize(grad, lip, u0, tol, max_iters)


def solve_linear_pdhg_logreg(
    problem,
    tau0=None,
    tol=1e-4,
    max_iters=50000,
    inner_tol=1e-10,
    inner_max_iters=10000,
    stop_on="both",
):
    """Accelerated Euclidean PDHG on the ball-constrained logistic problem.

    Works directly on B (m x d) and the radius-lam ball: a dual gradient
    step followed by the Euclidean prox of the averaged binary entropy
    (evaluated through its conjugate and an inner forward-backward solve,
    warm-started across iterations), then an exact l1-ball projection. The
    schedule is the accelerated dual recurrence driven by gamma = 4m and the
    largest singular value of B, whose power-iteration cost is part of the
    reported wall time.
    """
    t0 = time.perf_counter()
    B = problem.B
    m, d = B.shape
    lam = problem.lam
    nrm = norm_2_2(DenseOperator(B))
    if tau0 is None:
        tau0 = 2.0 * m / nrm**2
    sigma = 1.0 / (nrm**2 * tau0)
    tau = tau0
    theta = 0.0
    v = np.full(d, 1.0 / d)
    v_prev = v.copy()
    y = np.full(m, 1.0 / (2.0 * m))
    acc = ErgodicAccumulator(d, m)
    growth = 1.0  # iterate k carries ergodic weight tau_{k-1}/tau_0
    trace = []
    converged = False
    y_erg_prev = None
    u_warm = y.copy()
    k = 0
    for k in range(1, max_iters + 1):
        z = y + sigma * (B @ (v + theta * (v - v_prev)))
        u_warm = _logistic_conjugate_prox(z, sigma, m, u_warm, inner_tol, inner_max_iters)
        y_new = z - u_warm
        v_new = project_l1_ball(v - tau * (B.T @ y_new), lam)
        acc.add(v_new, y_new, growth)
        monitored = _rel_change(y_new, y)
        trace.append((k, monitored))
        theta = 1.0 / np.sqrt(1.0 + 4.0 * m * sigma)
        growth = 1.0 / theta
        tau = tau / theta
        sigma = theta * sigma
        v, v_prev, y = v_new, v, y_new
        y_avg = acc.y_avg
        erg_ok = y_erg_prev is not None and _rel_change(y_avg, y_erg_prev) <= tol
        y_erg_prev = y_avg
        converged = check_stop(stop_on, monitored <= tol, erg_ok)
        if converged:
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return SolveReport(
        problem_id=problem.problem_id,
        regime="linear-pdhg",
        k=k,
        converged=converged,
        wall_ms=wall_ms,
        residual_trace=trace,
        terminal_primal_norm=float(np.linalg.norm(v)),
        terminal_dual_norm=float(np.linalg.norm(y)),
        x=v,
        y=y,
        x_ergodic=acc.x_avg if acc.total > 0 else v.copy(),
        y_ergodic=acc.y_avg if acc.total > 0 else y.copy(),
    )


def solve_fb_logreg(problem, tol=1e-4, max_iters=50000):
    """FISTA-style projected gradient on the ball-constrained logistic
    objective; step 4m/||B||_{2,2}^2, first extrapolation clamped to zero."""
    t0 = time.perf_counter()
    B = problem.B
    m, d = B.shape
    nrm = norm_2_2(DenseOperator(B))
    tau = 4.0 * m / nrm**2
    v = np.full(d, 1.0 / d)
    v_prev = v.copy()
    t_k = 0.0
    beta = 0.0
    trace = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        w = v + beta * (v - v_prev)
        grad = B.T @ (sigmoid(B @ w) / m)
        v_new = project_l1_ball(w - tau * grad, problem.lam)
        denom = np.sum(np.abs(v_new))
        monitored = float(np.sum(np.abs(v_new - v)) / (denom if denom > 0 else 1.0))
        trace.append((k, monitored))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
        # t0 = beta0 = 0 makes the raw first coefficient negative; clamp.
        beta = min(max((t_k - 1.0) / t_next, 0.0), 1.0)
        t_k = t_next
        v, v_prev = v_new, v
        if monitored <= tol:
            converged = True
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return SolveReport(
        problem_id=problem.problem_id,
        regime="fb-splitting",
        k=k,
        converged=converged,
        wall_ms=wall_ms,
        residual_trace=trace,
        terminal_primal_norm=float(np.linalg.norm(v)),
        terminal_dual_norm=0.0,
        x=v,
        y=np.zeros(m),
        x_ergodic=v.copy(),
        y_ergodic=np.zeros(m),
    )


def _entropy_conjugate_prox(v, c, u_warm, tol, max_iters):
    """argmin_z 0.5||z - v||^2 + c * logsumexp(z/c)."""

    def grad(z):
        return z - v + softmax(z / c)

    lip = 1.0 + 1.0 / c
    return _fb_minimize(grad, lip, u_warm, tol, max_iters)


def solve_linear_pdhg_game(
    problem,
    tol=1e-4,
    max_iters=50000,
    inner_tol=1e-10,
    inner_max_iters=10000,
    stop_on="both",
    seed=0,
):
    """Euclidean PDHG on the entropy-regularized game.

    Uses the linear-rate parameters computed from the largest singular value
    of the payoff matrix; both entropic proxes are evaluated through their
    conjugates with warm-started inner forward-backward solves.
    """
    t0 = time.perf_counter()
    A = problem.payoff
    m, n = A.shape
    lam = problem.lam
    nrm = norm_2_2(DenseOperator(A))
    theta, tau, sigma = linear_rate_params(lam, lam, nrm)
    x, y = problem.default_init(seed=seed)
    x_prev = x.copy()
    acc = ErgodicAccumulator(n, m)
    growth = 1.0  # ergodic weights theta^{-(k-1)}
    trace = []
    converged = False
    y_erg_prev = None
    warm_y = y.copy()
    warm_x = x.copy()
    k = 0
    for k in range(1, max_iters + 1):
        v = y + sigma * (A @ (x + theta * (x - x_prev)))
        warm_y = _entropy_conjugate_prox(v, lam * sigma, warm_y, inner_tol, inner_max_iters)
        y_new = v - warm_y
        w = x - tau * (A.T @ y_new)
        warm_x = _entropy_conjugate_prox(w, lam * tau, warm_x, inner_tol, inner_max_iters)
        x_new = w - warm_x
        acc.add(x_new, y_new, growth)
        monitored = _rel_change(y_new, y)
        trace.append((k, monitored))
        growth = 1.0 / theta
        x, x_prev, y = x_new, x, y_new
        y_avg = acc.y_avg
        erg_ok = y_erg_prev is not None and _rel_change(y_avg, y_erg_prev) <= tol
        y_erg_prev = y_avg
        converged = check_stop(stop_on, monitored <= tol, erg_ok)
        if converged:
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return SolveReport(
        problem_id=problem.problem_id,
        regime="linear-pdhg",
        k=k,
        converged=converged,
        wall_ms=wall_ms,
        residual_trace=trace,
        terminal_primal_norm=float(np.linalg.norm(x)),
        terminal_dual_norm=float(np.linalg.norm(y)),
        x=x,
        y=y,
        x_ergodic=acc.x_avg if acc.total > 0 else x.copy(),
        y_ergodic=acc.y_avg if acc.total > 0 else y.copy(),
    )


def fista_lasso(problem, tau=None, tol=1e-8, max_iters=100000):
    """FISTA on the Lasso primal; wall time includes the largest-singular-
    value estimate that sets the step size."""
    t0 = time.perf_counter()
    A, b, lam, m = problem.A, problem.b, problem.lam, problem.m
    if tau is None:
        tau = m / norm_2_2(problem.operator) ** 2
    x = np.zeros(problem.n)
    x_prev = x.copy()
    t_k = 0.0
    beta = 0.0
    trace = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        w = x + beta * (x - x_prev)
        x_new = shrink1(w - tau * (A.T @ (A @ w - b)) / m, lam * tau)
        monitored = float(np.linalg.norm(x_new - x))
        trace.append((k, monitored))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k**2))
        beta = min(max((t_k - 1.0) / t_next, 0.0), 1.0)
        t_k = t_next
        x, x_prev = x_new, x
        if monitored <= tol:
            converged = True
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    y = (A @ x - b) / m
    return SolveReport(
        problem_id=problem.problem_id,
        regime="fista",
        k=k,
        converged=converged,
        wall_ms=wall_ms,
        residual_trace=trace,
        terminal_primal_norm=float(np.linalg.norm(x)),
        terminal_dual_norm=float(np.linalg.norm(y)),
        x=x,
        y=y,
        x_ergodic=x.copy(),
        y_ergodic=y.copy(),
    )


def prox_gradient_lasso(A, b, lam, tol=1e-10, max_iters=500000, x0=None):
    """Plain forward-backward (ISTA) on the Lasso primal, run to a tight
    iterate-change tolerance; serves as an independent oracle."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    tau = m / norm_2_2(DenseOperator(A)) ** 2
    x = np.zeros(A.shape[1]) if x0 is None else np.asarray(x0, dtype=float).copy()
    for _ in range(max_iters):
        x_new = shrink1(x - tau * (A.T @ (A @ x - b)) / m, lam * tau)
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    return x


def pu_learning_rate(problem):
    return 1.0 / (2.0 + norm_1_inf(problem.operator))


def omwu_learning_rate(problem):
    nrm = norm_1_inf(problem.operator)
    if nrm == 0.0:
        return 0.5
    return min(1.0 / (2.0 + 2.0 * nrm), 1.0 / (4.0 * nrm))


def _normalize_log(l):
    l = l - np.max(l)
    return l - np.log(np.sum(np.exp(l)))


def _game_report(problem, regime, k, converged, wall_ms, trace, x, y):
    return SolveReport(
        problem_id=problem.problem_id,
        regime=regime,
        k=k,
        converged=converged,
        wall_ms=wall_ms,
        residual_trace=trace,
        terminal_primal_norm=float(np.linalg.norm(x)),
        terminal_dual_norm=float(np.linalg.norm(y)),
        x=x,
        y=y,
        x_ergodic=x.copy(),
        y_ergodic=y.copy(),
    )


def solve_game_pu(problem, eta=None, tol=1e-8, max_iters=100000, seed=0, x0=None, y0=None):
    """Predictive (extragradient-style) multiplicative-weights update.

    Both players take a damped MWU half-step to predict the opponent, then
    the full step against the predicted strategies. Everything is carried in
    normalized log space. The fixed point is the regularized equilibrium
    y = softmax(A x / lam), x = softmax(-A^T y / lam).
    """
    t0 = time.perf_counter()
    A = problem.payoff
    lam = problem.lam
    if eta is None:
        eta = pu_learning_rate(problem)
    if x0 is None or y0 is None:
        dx0, dy0 = problem.default_init(seed=seed)
        x0 = dx0 if x0 is None else x0
        y0 = dy0 if y0 is None else y0
    lx = np.log(np.asarray(x0, dtype=float))
    ly = np.log(np.asarray(y0, dtype=float))
    damp = 1.0 - eta * lam
    trace = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        x = np.exp(lx)
        y = np.exp(ly)
        ly_bar = _normalize_log(damp * ly + eta * (A @ x))
        lx_bar = _normalize_log(damp * lx - eta * (A.T @ y))
        ly_new = _normalize_log(damp * ly + eta * (A @ np.exp(lx_bar)))
        lx_new = _normalize_log(damp * lx - eta * (A.T @ np.exp(ly_bar)))
        x_new = np.exp(lx_new)
        y_new = np.exp(ly_new)
        monitored = max(_rel_change(x_new, x), _rel_change(y_new, y))
        trace.append((k, monitored))
        lx, ly = lx_new, ly_new
        if monitored <= tol:
            converged = True
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return _game_report(problem, "pu", k, converged, wall_ms, trace, np.exp(lx), np.exp(ly))


def solve_game_omwu(problem, eta=None, tol=1e-8, max_iters=100000, seed=0, x0=None, y0=None):
    """Optimistic multiplicative-weights update: a single damped MWU step
    against the extrapolated gradient 2 g_k - g_{k-1}."""
    t0 = time.perf_counter()
    A = problem.payoff
    lam = problem.lam
    if eta is None:
        eta = omwu_learning_rate(problem)
    if x0 is None or y0 is None:
        dx0, dy0 = problem.default_init(seed=seed)
        x0 = dx0 if x0 is None else x0
        y0 = dy0 if y0 is None else y0
    lx = np.log(np.asarray(x0, dtype=float))
    ly = np.log(np.asarray(y0, dtype=float))
    damp = 1.0 - eta * lam
    g_y_prev = A @ np.exp(lx)
    g_x_prev = A.T @ np.exp(ly)
    trace = []
    converged = False
    k = 0
    for k in range(1, max_iters + 1):
        x = np.exp(lx)
        y = np.exp(ly)
        g_y = A @ x
        g_x = A.T @ y
        ly_new = _normalize_log(damp * ly + eta * (2.0 * g_y - g_y_prev))
        lx_new = _normalize_log(damp * lx - eta * (2.0 * g_x - g_x_prev))
        x_new = np.exp(lx_new)
        y_new = np.exp(ly_new)
        monitored = max(_rel_change(x_new, x), _rel_change(y_new, y))
        trace.append((k, monitored))
        g_y_prev, g_x_prev = g_y, g_x
        lx, ly = lx_new, ly_new
        if monitored <= tol:
            converged = True
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return _game_report(problem, "omwu", k, converged, wall_ms, trace, np.exp(lx), np.exp(ly))
