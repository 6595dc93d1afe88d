"""Comparison solvers: linear (Euclidean) PDHG, projected forward-backward,
FISTA, and the predictive-update / optimistic-MWU game methods.

The linear PDHG baselines are the same iteration as nonlinear PDHG in
Euclidean geometry, so they run through ``engine.run``'s body ``_run``: each
solve builds a single-use saddle problem whose proxes solve the nested
Euclidean subproblems by one inner solve, ``_moreau``: the Moreau split
z - u* with u* the prox of the conjugate, found by gradient steps
warm-started across iterations.
They pay for a largest-singular-value estimate up front, and their reported
wall time includes that ``norm_2_2`` call, mirroring how such baselines are
usually accounted. Projected forward-backward on logistic regression and
FISTA on the Lasso share one FISTA step, PU and OMWU one MWU step, all on the
engine's loop driver; the ISTA oracle keeps its own loop, apart from them.
The driver stops each solver's clock, started before any ``norm_2_2``, and
builds its report.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .bregman import sigmoid, softmax
from .checks import real_array
from .engine import SaddleProblem, StoppingRule
from .engine import _check_finite, _iterate, _norm, _rel_change, _run
from .operators import DenseOperator, norm_2_2
from .problems.lasso import LassoProblem, shrink1
from .schedules import schedule_for

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


# Tolerance and iteration cap of the linear-PDHG baselines' inner solves.
_INNER_TOL = 1e-10
_INNER_MAX_ITERS = 10000


class InnerSolveError(RuntimeError):
    """A nested proximal subproblem did not reach its tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def project_l1_ball(v, radius):
    """Euclidean projection onto {u : ||u||_1 <= radius}, exact.

    Sort-based threshold search, O(d log d). Inputs already inside the ball
    are returned unchanged; ValueError for a NaN, infinite or complex entry.
    Where only the largest |v_j| survives the threshold, the result is the
    vertex radius * sign(v_j) * e_j, set exactly: the threshold itself can
    round by more than the radius next to a huge entry (about 1e16 times it).
    """
    # A bare compare, not check_real: FB and linear-PDHG call this every iteration.
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    v = real_array(v, "v")
    a = np.abs(v)
    total = a.sum()
    # A finite sum needs no scan of the entries.
    if not (math.isfinite(total) or np.isfinite(a).all()):
        raise ValueError("v contains NaN or Inf entries")
    if total <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.shape[0] + 1)
    # k = 1 always qualifies in exact arithmetic; forcing it keeps the
    # threshold at or above the largest entry when rounding rejects it.
    keep = u * ks > css - radius
    keep[0] = True
    k = ks[keep][-1]
    if k == 1:
        # The other entries vanish with the signs np.sign(v) * 0.0 gives them.
        out = np.sign(v) * 0.0
        j = a.argmax()
        out[j] = radius * np.sign(v[j])
        return out
    theta = (css[k - 1] - radius) / k
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _moreau(z, conj_grad, lip, u):
    """Moreau split (z - u*, u*) of z, where u* = argmin_u 0.5||u - z||^2 +
    f(u), f is the conjugate term with gradient ``conj_grad`` (a fresh array
    each call, which the step overwrites) and ``lip`` is 1 plus a Lipschitz
    constant of that gradient. Plain gradient steps from
    the warm start ``u`` find u*, stopping once no coordinate moves by more
    than ``_INNER_TOL``; InnerSolveError after ``_INNER_MAX_ITERS`` steps."""
    step = 1.0 / lip
    for _ in range(_INNER_MAX_ITERS):
        # u - step * (conj_grad(u) + u - z), then max |u_new - u|, in the
        # fresh gradient and difference arrays.
        u_new = conj_grad(u)
        u_new += u - z
        u_new *= step
        np.subtract(u, u_new, out=u_new)
        diff = u_new - u
        np.abs(diff, out=diff)
        delta = float(diff.max())
        u = u_new
        if delta <= _INNER_TOL:
            return z - u, u
    raise InnerSolveError(
        f"inner forward-backward iteration stalled above tolerance {_INNER_TOL}", residual=delta
    )


class _WarmStartedProxes(SaddleProblem):
    """Single-use saddle problem of one linear-PDHG solve.

    Both geometries are Euclidean, so each prox is a gradient step along the
    engine's product with ``operator``, finished by ``dual_map(z, sigma, warm)``
    or ``primal_map(w, tau, warm)``. A map returns the new point and the warm
    start for its next inner solve; the instance carries the warm starts
    across iterations, so every solve builds a fresh one. ``problem_id`` is
    that of the problem being solved, so that the report names it.
    """

    def __init__(self, problem_id, operator, dual_map, primal_map, warm_y, warm_x):
        self.problem_id = problem_id
        self.operator = operator
        self.dual_map = dual_map
        self.primal_map = primal_map
        self.warm_y = warm_y
        self.warm_x = warm_x

    def dual_prox(self, ax, y_bar, sigma):
        z = y_bar + sigma * ax
        y, self.warm_y = self.dual_map(z, sigma, self.warm_y)
        return y

    def primal_prox(self, aty, x_bar, tau):
        w = x_bar - tau * aty
        x, self.warm_x = self.primal_map(w, tau, self.warm_x)
        return x


def solve_linear_pdhg_logreg(problem, tol=1e-4, max_iters=50000, stop_on="both"):
    """Accelerated Euclidean PDHG on the ball-constrained logistic problem.

    Works directly on B (m x d) and the radius-lam ball: a dual gradient
    step followed by the Euclidean prox of the averaged binary entropy
    (a ``_moreau`` split by its conjugate, warm-started across
    iterations), then an exact l1-ball projection. The
    schedule is the accelerated dual recurrence driven by gamma = 4m and the
    largest singular value of B, whose power-iteration cost is part of the
    reported wall time. Stops per ``StoppingRule(max_iters, tol, stop_on)``.
    """
    t0 = time.perf_counter()
    stop = StoppingRule(max_iters, tol, stop_on)
    op = DenseOperator(problem.B)
    m, d = op.rows, op.cols
    schedule = schedule_for(problem.gamma_g, problem.gamma_h_star, norm_2_2(op))

    def dual_map(z, sigma, u_warm):
        def conj_grad(u):
            g = sigmoid(u / sigma)
            g /= m
            return g

        return _moreau(z, conj_grad, 1.0 + 1.0 / (4.0 * sigma * m), u_warm)

    def primal_map(w, tau, _):
        return project_l1_ball(w, problem.lam), None

    y0 = np.full(m, 1.0 / (2.0 * m))
    saddle = _WarmStartedProxes(problem.problem_id, op, dual_map, primal_map, y0, None)
    return _run(saddle, schedule, np.full(d, 1.0 / d), y0, stop, "linear-pdhg", t0)


def _fista(problem, regime, step, monitor, dual, x0, stop, t0):
    """FISTA from x0: x_{k+1} = step(x_k + beta_k (x_k - x_{k-1})), with the
    first extrapolation clamped to zero, on the engine's driver: it ends per
    ``stop`` once monitor(x_{k+1}, x_k) <= its tol, and raises on a non-finite
    iterate. Returns the driver's report, timed from ``t0``, with y = dual(x)."""
    x, x_prev = x0, x0.copy()
    t_k = beta = 0.0

    def advance(k):
        nonlocal x, x_prev, t_k, beta
        x_bar = x - x_prev
        x_bar *= beta
        x_bar += x
        x_new = step(x_bar)
        monitored = monitor(x_new, x)
        _check_finite(k, (monitored, x_new))
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k**2))
        # t0 = beta0 = 0 makes the raw first coefficient negative; clamp.
        beta = min(max((t_k - 1.0) / t_next, 0.0), 1.0)
        t_k = t_next
        x, x_prev = x_new, x
        return monitored, stop.tol is not None and monitored <= stop.tol

    return _iterate(problem.problem_id, regime, stop, advance, lambda: (x, dual(x)), t0)


def solve_fb_logreg(problem, tol=1e-4, max_iters=50000):
    """FISTA-style projected gradient on the ball-constrained logistic
    objective; step 4m/||B||_{2,2}^2, first extrapolation clamped to zero.
    Stops per ``StoppingRule(max_iters, tol)`` on the relative l1 change of
    the iterate."""
    stop = StoppingRule(max_iters, tol)
    t0 = time.perf_counter()
    op = DenseOperator(problem.B)
    m, d = op.rows, op.cols
    tau = 4.0 * m / norm_2_2(op) ** 2

    def step(w):
        s = sigmoid(op.apply(w))
        s /= m
        g = op.adjoint_apply(s)
        g *= tau
        return project_l1_ball(np.subtract(w, g, out=g), problem.lam)

    def monitor(new, old):
        denom = np.abs(new).sum()
        diff = new - old
        np.abs(diff, out=diff)
        return float(diff.sum() / (denom if denom > 0 else 1.0))

    x0 = np.full(d, 1.0 / d)
    return _fista(problem, "fb-splitting", step, monitor, lambda x: np.zeros(m), x0, stop, t0)


def solve_linear_pdhg_game(problem, tol=1e-4, max_iters=50000, stop_on="both", seed=0):
    """Euclidean PDHG on the entropy-regularized game.

    Uses the linear-rate parameters computed from the largest singular value
    of the payoff matrix, applied y-first; each entropic prox is a
    warm-started ``_moreau`` split by the conjugate, c * logsumexp(u/c).
    Stops per ``StoppingRule(max_iters, tol, stop_on)``.
    """
    t0 = time.perf_counter()
    lam = problem.lam
    stop = StoppingRule(max_iters, tol, stop_on)
    schedule = schedule_for(problem.gamma_g, problem.gamma_h_star, norm_2_2(problem.operator))

    def entropy_map(z, step, u_warm):
        c = lam * step
        return _moreau(z, lambda u: softmax(u / c), 1.0 + 1.0 / c, u_warm)

    x0, y0 = problem.default_init(seed=seed)
    saddle = _WarmStartedProxes(
        problem.problem_id, problem.operator, entropy_map, entropy_map, y0, x0
    )
    return _run(saddle, schedule, x0, y0, stop, "linear-pdhg", t0)


def fista_lasso(problem, tol=1e-8, max_iters=100000):
    """FISTA on the Lasso primal, stopping per ``StoppingRule(max_iters,
    tol)`` on the absolute iterate change; wall time includes the
    largest-singular-value estimate that sets the step size."""
    stop = StoppingRule(max_iters, tol)
    t0 = time.perf_counter()
    A, b, lam, m = problem.operator, problem.b, problem.lam, problem.m
    tau = m / norm_2_2(A) ** 2

    def step(w):
        r = A.apply(w)
        r -= b
        g = A.adjoint_apply(r)
        g *= tau
        g /= m
        return shrink1(np.subtract(w, g, out=g), lam * tau)

    def monitor(new, old):
        return _norm(new - old)

    def dual(x):
        return (A.apply(x) - b) / m

    return _fista(problem, "fista", step, monitor, dual, np.zeros(problem.n), stop, t0)


def prox_gradient_lasso(A, b, lam, tol=1e-10, max_iters=500000):
    """Plain forward-backward (ISTA) on the Lasso primal from x = 0, run per
    ``StoppingRule(max_iters, tol)`` to a tight iterate-change tolerance;
    serves as an independent oracle. Refuses what ``LassoProblem`` refuses,
    in its words. Raises RuntimeError if the change is still above ``tol``
    (always, for tol=None) after ``max_iters`` iterations."""
    stop = StoppingRule(max_iters, tol)
    tol = -math.inf if stop.tol is None else stop.tol
    problem = LassoProblem(A, b, lam)
    A, b, m = problem.operator.matrix, problem.b, problem.m
    tau = m / norm_2_2(problem.operator) ** 2
    x = np.zeros(A.shape[1])
    change = math.inf
    for _ in range(max_iters):
        x_new = shrink1(x - tau * (A.T @ (A @ x - b)) / m, lam * tau)
        change = np.linalg.norm(x_new - x)
        if change <= tol:
            return x_new
        x = x_new
    raise RuntimeError(
        f"prox_gradient_lasso: iterate change {change:.3e} still above tol {stop.tol} "
        f"after {max_iters} iterations"
    )


# The lam terms are the step bounds of Cen, Wei and Chi (NeurIPS 2021). They
# keep eta lam <= 1, so the damping 1 - eta lam of ``_mwu`` never falls below
# -1 and the iterates cannot blow up; neither binds at lam <= 1.
def pu_learning_rate(problem):
    nrm = problem.op_norm
    return min(1.0 / (2.0 + nrm), 1.0 / (problem.lam + nrm))


def omwu_learning_rate(problem):
    nrm = problem.op_norm
    bound = 1.0 / (2.0 * problem.lam + 2.0 * nrm)
    if nrm == 0.0:
        return min(0.5, bound)
    return min(1.0 / (2.0 + 2.0 * nrm), 1.0 / (4.0 * nrm), bound)


def _normalize_log(l):
    l = l - l.max()
    return l - np.log(np.exp(l).sum())


def _mwu(problem, regime, eta, gradients, seed, stop):
    """Damped multiplicative-weights loop in normalized log space, timed
    from its own start.

    Each iteration takes the step log x <- damp log x - eta g_x,
    log y <- damp log y + eta g_y, with damp = 1 - eta lam and
    (g_x, g_y) = gradients(step, lx, ly, x, y); ``step(lx, ly, g_x, g_y)``
    is that same step, for a gradient rule that predicts with it. Runs per
    ``stop`` as ``_fista`` does, on the larger relative change of x and y,
    and raises as it does on a non-finite iterate.
    """
    t0 = time.perf_counter()
    damp = 1.0 - eta * problem.lam

    def step(lx, ly, g_x, g_y):
        return _normalize_log(damp * lx - eta * g_x), _normalize_log(damp * ly + eta * g_y)

    lx, ly = map(np.log, problem.default_init(seed=seed))
    # exp(log x0), not x0: every iterate is the exp of its log.
    x, y = np.exp(lx), np.exp(ly)

    def advance(k):
        nonlocal lx, ly, x, y
        lx, ly = step(lx, ly, *gradients(step, lx, ly, x, y))
        x_new, y_new = np.exp(lx), np.exp(ly)
        change_x, change_y = _rel_change(x_new, x), _rel_change(y_new, y)
        # max() would hide a NaN second argument, so both changes are checked.
        _check_finite(k, (change_x, x_new), (change_y, y_new))
        monitored = max(change_x, change_y)
        x, y = x_new, y_new
        return monitored, stop.tol is not None and monitored <= stop.tol

    return _iterate(problem.problem_id, regime, stop, advance, lambda: (x, y), t0)


def solve_game_pu(problem, tol=1e-8, max_iters=100000, seed=0):
    """Predictive (extragradient-style) multiplicative-weights update.

    From ``problem.default_init(seed)``, both players take a damped MWU
    half-step to predict the opponent, then the full step against the
    predicted strategies. Everything is carried in normalized log space.
    The fixed point is the regularized equilibrium
    y = softmax(A x / lam), x = softmax(-A^T y / lam). Stops per
    ``StoppingRule(max_iters, tol)``.
    """
    stop = StoppingRule(max_iters, tol)
    A = problem.operator

    def predicted(step, lx, ly, x, y):
        lx_bar, ly_bar = step(lx, ly, A.adjoint_apply(y), A.apply(x))
        return A.adjoint_apply(np.exp(ly_bar)), A.apply(np.exp(lx_bar))

    eta = pu_learning_rate(problem)
    return _mwu(problem, "pu", eta, predicted, seed, stop)


def solve_game_omwu(problem, tol=1e-8, max_iters=100000, seed=0):
    """Optimistic multiplicative-weights update from
    ``problem.default_init(seed)``: a single damped MWU step against the
    extrapolated gradient 2 g_k - g_{k-1}. Stops per
    ``StoppingRule(max_iters, tol)``."""
    stop = StoppingRule(max_iters, tol)
    A = problem.operator
    g_prev = None

    def optimistic(step, lx, ly, x, y):
        nonlocal g_prev
        g = (A.adjoint_apply(y), A.apply(x))
        # The first step has no history: it extrapolates with g_0 itself.
        prev = g if g_prev is None else g_prev
        g_prev = g
        return 2.0 * g[0] - prev[0], 2.0 * g[1] - prev[1]

    eta = omwu_learning_rate(problem)
    return _mwu(problem, "omwu", eta, optimistic, seed, stop)
