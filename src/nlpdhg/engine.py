"""Generic saddle-point iteration engine.

A problem supplies two Bregman proximal maps and a linear operator; a
schedule supplies the step sizes and names its update order (overrelaxed,
x-first or y-first). One private step helper carries out an iteration in
that order on plain arrays and is the one place the loop applies the
operator: the proxes get A x and A^T y from it. The public ``step`` wraps
it for an ``IterateState``, the state the Lyapunov ``delta_diag`` reads.

One private driver, ``_iterate``, is the loop of every solver but the ISTA
oracle of ``baselines``: ``run``, FISTA and the MWU methods hand it a step
returning (monitored value, converged); it counts, stops, records the
(k, value) pairs, 16 bytes per iteration, in one flat ``array('d')`` that
the report views as a (K, 2) array, and stops the solver's clock and builds
its ``SolveReport``. ``_check_finite`` is their one guard against a
non-finite iterate; ``StoppingRule`` checks its numbers with
``nlpdhg.checks``, as every module does. ``run`` steps until a
``StoppingRule`` fires (one ``tol``; ``stop_on`` or a ``residual_fn`` says
what it bounds). Across iterations it keeps no state besides the iterates
and one ``ErgodicAccumulator``, O(m + n) in all. It forms the ergodic dual
average only on iterations whose ergodic test reads it, taking the previous
average from the accumulator before the add, yet reports what an average
formed on every iteration gives. ``run`` serves every PDHG solver;
``solve`` builds its ``StoppingRule`` first and runs ``run`` on a worked
problem, which names its own start point (``default_init``) and declares
its norm and strong-convexity constants; ``SaddleProblem.schedule()`` turns
those into a schedule through ``schedules.schedule_for``. The Euclidean
(linear) PDHG baselines pick theirs with the same function from ||A||_2,
build their ``StoppingRule`` and call ``run``'s body ``_run`` directly,
with their regime name and a clock started before the norm.

A solve run is single-threaded and deterministic; problems, schedules and
reports can move freely between threads, and independent solves may run
concurrently.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from dataclasses import dataclass

import numpy as np

from .checks import check_count, check_real, real_array
from .schedules import schedule_for

__all__ = [
    "SaddleProblem",
    "IterateState",
    "ErgodicAccumulator",
    "StoppingRule",
    "SolveReport",
    "step",
    "delta_diag",
    "run",
    "solve",
]


class SaddleProblem:
    """Contract for min-max problems of the form g(x) + <y, A x> - h*(y).

    Concrete problems provide:

    primal_prox(aty, x_bar, tau)
        argmin_x { g(x) + <aty, x> + (1/tau) D_X(x, x_bar) }, aty = A^T y_tilde
    dual_prox(ax, y_bar, sigma)
        argmax_y { -h*(y) + <y, ax> - (1/sigma) D_Y(y, y_bar) }, ax = A x_tilde

    together with ``operator`` (apply/adjoint_apply; the engine makes the
    products the proxes take), ``op_norm`` (the norm compatible with the
    chosen geometries), strong-convexity constants ``gamma_g`` and
    ``gamma_h_star`` (0 when the assumption is absent), and the geometries
    ``geom_x``, ``geom_y``. Prox outputs must land in the geometry domain
    interiors. A prox returns a fresh array and never writes to its
    arguments (``run`` passes its iterates without copying); it may work in
    place on arrays it allocated.

    When g is gamma_g phi_X plus a linear term (and h* likewise
    gamma_h_star phi_Y), each prox is one geometry ``step`` in that form:
    ``geom_x.step(x_bar, aty + c, -tau, 1.0 + gamma_g * tau)`` and
    ``geom_y.step(y_bar, ax - d, sigma, 1.0 + gamma_h_star * sigma)``, c and
    d the linear terms. So the constants that pick the schedule are the
    ones in the proxes. Every worked prox but the Lasso primal (soft
    thresholding) takes this form.

    For ``solve``, a problem also provides ``default_init(seed)``, its start
    pair (x0, y0). It need not provide ``schedule()``: the inherited one
    picks a fresh schedule from ``op_norm`` and the two constants.
    """

    problem_id = "saddle"
    gamma_g = 0.0
    gamma_h_star = 0.0

    def schedule(self):
        """A fresh schedule from the problem's constants."""
        return schedule_for(self.gamma_g, self.gamma_h_star, self.op_norm)


@dataclass
class IterateState:
    """Current and previous primal/dual points."""

    x: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    y_prev: np.ndarray
    k: int = 0

    @classmethod
    def initial(cls, x0, y0):
        x0, y0 = real_array(x0, "x0"), real_array(y0, "y0")
        return cls(x=x0.copy(), x_prev=x0.copy(), y=y0.copy(), y_prev=y0.copy(), k=0)


class ErgodicAccumulator:
    """Weighted running averages with joint rescaling.

    Stores running weighted sums, never per-iterate history, so memory stays
    O(m + n) for any horizon. Geometric weights (the linear-rate regime) are
    accumulated through their growth factor and everything is rescaled by the
    current weight once it exceeds ``RESCALE_AT``; averages are invariant
    under the common rescaling.
    """

    RESCALE_AT = 1e120

    def __init__(self, dim_x, dim_y):
        self.sum_x = np.zeros(dim_x)
        self.sum_y = np.zeros(dim_y)
        self.total = 0.0
        self.weight = 1.0

    def add(self, x, y, growth):
        self.weight *= growth
        if self.weight > self.RESCALE_AT:
            inv = 1.0 / self.weight
            self.sum_x *= inv
            self.sum_y *= inv
            self.total *= inv
            self.weight = 1.0
        self.sum_x += self.weight * x
        self.sum_y += self.weight * y
        self.total += self.weight

    @property
    def x_avg(self):
        return self.sum_x / self.total

    @property
    def y_avg(self):
        return self.sum_y / self.total


@dataclass
class StoppingRule:
    """When ``run`` stops, checked after every iteration.

    ``max_iters`` (an integer >= 0) caps the run and never marks it
    converged; with ``tol`` left at None nothing else stops it, and a set
    ``tol`` must be a finite number >= 0. With ``tol`` set, ``stop_on`` picks
    the test: "regular" bounds the relative dual change,
    ||y_{k+1} - y_k|| <= tol * ||y_{k+1}|| (from k = 2 on), "ergodic" the
    same change of the ergodic dual average, and "both" requires both. A
    ``residual_fn(x, y)`` replaces those tests: the rule fires once the
    residual is at most ``tol``, and the trace records the residual instead
    of the dual change.
    """

    max_iters: int = 10000
    tol: float | None = None
    stop_on: str = "both"
    residual_fn: object = None

    def __post_init__(self):
        check_count("max_iters", self.max_iters, 0)
        if self.tol is not None:
            check_real("tol", self.tol, positive=False)
        if self.stop_on not in ("regular", "ergodic", "both"):
            raise ValueError(
                f"stop_on must be 'regular', 'ergodic' or 'both', got {self.stop_on!r}"
            )


def _norm(v):
    """``np.linalg.norm(v)`` of a float vector, computed the way numpy does
    (sqrt of the dot product of the contiguous ravel) without its dispatch."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def _rel_change(new, old, new_norm=None):
    """||new - old|| / ||new|| (plain ||new - old|| when new = 0); pass
    ``new_norm`` when ||new|| is already known."""
    denom = _norm(new) if new_norm is None else new_norm
    change = _norm(new - old)
    return change if denom == 0.0 else change / denom


@dataclass
class SolveReport:
    """Outcome of one solve: only what the solve produced. A solver that
    keeps no ergodic average leaves ``x_ergodic``/``y_ergodic`` out; they
    then hold copies of x and y. ``to_json`` adds the norms of x and y.

    ``residual_trace`` holds row (k, monitored value) for each iteration k
    as a (K, 2) float64 array, 16 bytes per iteration. Pass it as any
    sequence of pairs; a flat ``array('d')`` of k, value, k, value, ... is
    viewed in place, not copied. Test ``len(trace)``, not its truth value
    (ambiguous for two or more rows), and cast k with ``int`` to use it as
    an index, since the k column is float64.
    """

    problem_id: str
    regime: str
    k: int
    converged: bool
    wall_ms: float
    residual_trace: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_ergodic: np.ndarray | None = None
    y_ergodic: np.ndarray | None = None

    def __post_init__(self):
        self.residual_trace = np.asarray(self.residual_trace, dtype=float).reshape(-1, 2)
        if self.x_ergodic is None:
            self.x_ergodic = self.x.copy()
        if self.y_ergodic is None:
            self.y_ergodic = self.y.copy()

    def to_json(self):
        return json.dumps(
            {
                "problem_id": self.problem_id,
                "regime": self.regime,
                "k": self.k,
                "converged": self.converged,
                "wall_ms": self.wall_ms,
                "residual_trace": [[int(k), v] for k, v in self.residual_trace.tolist()],
                "terminal_primal_norm": float(np.linalg.norm(self.x)),
                "terminal_dual_norm": float(np.linalg.norm(self.y)),
            }
        )


def _check_finite(k, *pairs):
    """Raise ``non-finite iterate at k=<k>`` unless each (reduction, array) pair
    has a finite reduction (proof of finite entries) or else finite entries."""
    for reduction, a in pairs:
        if not (math.isfinite(reduction) or np.isfinite(a).all()):
            raise RuntimeError(f"non-finite iterate at k={k}")


def _iterate(problem_id, regime, stop, advance, point, t0):
    """For k = 1 .. ``stop.max_iters``: call ``advance(k) -> (monitored,
    converged)``, record (k, monitored) and stop once converged; k = 0 at
    max_iters 0. Returns the ``SolveReport``, timed from ``t0``, of the
    point ``point()`` gives after the clock stops: (x, y) or (x, y, x_ergodic,
    y_ergodic)."""
    trace = array("d")
    k, converged = 0, False
    for k in range(1, stop.max_iters + 1):
        monitored, converged = advance(k)
        trace.append(k)
        trace.append(monitored)
        if converged:
            break
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return SolveReport(problem_id, regime, k, converged, wall_ms, trace, *point())


def _step(problem, schedule, x, x_prev, y, y_prev):
    """The iteration of ``step`` on plain arrays: returns (x_{k+1}, y_{k+1})
    and advances the schedule; the primal prox gets its one A^T y product,
    the dual prox its one A x. ``run`` calls it directly, so its loop keeps
    the iterates as locals and builds no ``IterateState``."""
    order = schedule.order
    A = problem.operator
    if order == "overrelaxed":
        x_new = problem.primal_prox(A.adjoint_apply(y), x, schedule.tau)
        x_bar = 2.0 * x_new
        x_bar -= x
        y_new = problem.dual_prox(A.apply(x_bar), y, schedule.sigma)
    elif order == "x-first":
        y_tilde = y - y_prev
        y_tilde *= schedule.theta
        y_tilde += y
        x_new = problem.primal_prox(A.adjoint_apply(y_tilde), x, schedule.tau)
        y_new = problem.dual_prox(A.apply(x_new), y, schedule.sigma)
    elif order == "y-first":
        x_tilde = x - x_prev
        x_tilde *= schedule.theta
        x_tilde += x
        y_new = problem.dual_prox(A.apply(x_tilde), y, schedule.sigma)
        x_new = problem.primal_prox(A.adjoint_apply(y_new), x, schedule.tau)
    else:
        raise ValueError(f"unknown update order {order!r}")
    schedule.advance()
    return x_new, y_new


def step(problem, state, schedule):
    """One iteration in the schedule's ``order`` at its current (theta, tau,
    sigma), then ``schedule.advance()``. "overrelaxed": x-prox at y_k, y-prox
    at 2 x_{k+1} - x_k. "x-first": x-prox at y_k + theta (y_k - y_{k-1}),
    y-prox at x_{k+1}. "y-first": y-prox at x_k + theta (x_k - x_{k-1}),
    x-prox at y_{k+1}. Like ``run``, it silences log 0 = -inf."""
    with np.errstate(divide="ignore"):
        x_new, y_new = _step(problem, schedule, state.x, state.x_prev, state.y, state.y_prev)
    return IterateState(x_new, state.x, y_new, state.y, state.k + 1)


def delta_diag(problem, state, schedule, x_ref, y_ref):
    """Lyapunov quantity Delta_k of the schedule's update order at a
    reference point.

    The schedule must be aligned with the state: its current (theta, tau,
    sigma) are the index-k parameters; the extrapolated orders weigh their
    history term by ``schedule.history_weight``. At a saddle-point reference
    the value is nonnegative and contracts per the regime's guarantee; at
    arbitrary references the bilinear terms can make it negative.
    """
    A = problem.operator
    gx = problem.geom_x
    gy = problem.geom_y
    tau, sigma, theta = schedule.tau, schedule.sigma, schedule.theta
    d_x = gx.divergence(x_ref, state.x) / tau
    d_y = gy.divergence(y_ref, state.y) / sigma
    order = schedule.order
    if order == "overrelaxed":
        cross = float((y_ref - state.y) @ A.apply(x_ref - state.x))
        return d_x + d_y - cross
    if order == "x-first":
        hist = schedule.history_weight * gy.divergence(state.y, state.y_prev) / sigma
        cross = theta * float((state.y - state.y_prev) @ A.apply(x_ref - state.x))
    elif order == "y-first":
        hist = schedule.history_weight * gx.divergence(state.x, state.x_prev) / tau
        cross = theta * float((y_ref - state.y) @ A.apply(state.x - state.x_prev))
    else:
        raise ValueError(f"unknown update order {order!r}")
    return d_x + d_y + hist + cross


def run(problem, schedule, x0, y0, stop=None):
    """Iterate until the stopping rule ``stop`` fires or its max_iters is
    exhausted; the default ``StoppingRule()`` only caps the iterations.

    The trace records the rule's residual when it has a ``residual_fn`` and
    the relative dual change otherwise. Exhausting max_iters flags the
    report as non-converged; a non-finite iterate raises, but log 0 = -inf
    does not warn. The regular dual-change test waits for k = 2: a first
    step that leaves y at its start point says nothing about convergence.
    For ``delta_diag`` along a trajectory, drive ``step`` in a loop instead.
    """
    return _run(problem, schedule, x0, y0, stop, schedule.regime, time.perf_counter())


def _run(problem, schedule, x0, y0, stop, regime, t0):
    """``run``, reporting ``regime`` and a wall time counted from ``t0``."""
    if stop is None:
        stop = StoppingRule()
    x, y = real_array(x0, "x0").copy(), real_array(y0, "y0").copy()
    x_prev, y_prev = x, y
    acc = ErgodicAccumulator(x.shape[0], y.shape[0])
    tol, residual_fn = stop.tol, stop.residual_fn
    regular = stop.stop_on != "ergodic"
    ergodic = tol is not None and residual_fn is None and stop.stop_on != "regular"

    def advance(k):
        nonlocal x, x_prev, y, y_prev
        # Consecutive ergodic weights grow by 1/theta after the schedule's
        # first step; the accumulator rescales to keep them in range.
        growth = 1.0 if schedule.k == 0 else 1.0 / schedule.theta
        x_new, y_new = _step(problem, schedule, x, x_prev, y, y_prev)
        x_prev, y_prev, x, y = x, y, x_new, y_new
        y_norm = _norm(y)
        _check_finite(k, (x.dot(x), x), (y_norm, y))
        if residual_fn is None:
            monitored = _rel_change(y, y_prev, y_norm)
            converged = tol is not None and (not regular or (k > 1 and monitored <= tol))
        else:
            monitored = float(residual_fn(x, y))
            converged = tol is not None and monitored <= tol

        # The ergodic test reads the dual average only where the regular one
        # passed, so only those iterations form it; the previous average is
        # the accumulator's before this add.
        form_avg = ergodic and converged
        previous = acc.y_avg if form_avg and k > 1 else None
        acc.add(x, y, growth)
        if form_avg:
            converged = previous is not None and _rel_change(acc.y_avg, previous) <= tol
        return monitored, converged

    def point():
        return (x, y, acc.x_avg, acc.y_avg) if acc.total > 0.0 else (x, y)

    with np.errstate(divide="ignore"):
        return _iterate(getattr(problem, "problem_id", "saddle"), regime, stop, advance, point, t0)


def solve(
    problem,
    x0=None,
    y0=None,
    tol=1e-4,
    max_iters=100000,
    residual_fn=None,
    stop_on="both",
    seed=0,
):
    """Run a worked problem on its own ``schedule()``.

    A missing x0 or y0 comes from ``problem.default_init(seed)``; both must
    lie in the interior of the problem's geometries. Stops per
    ``StoppingRule(max_iters, tol, stop_on, residual_fn)``: by default once
    the relative dual change and its ergodic counterpart are both at most
    ``tol``, or, given a ``residual_fn``, once the residual is.
    """
    stop = StoppingRule(max_iters, tol, stop_on, residual_fn)
    default = problem.default_init(seed)
    x0 = real_array(default[0] if x0 is None else x0, "x0")
    y0 = real_array(default[1] if y0 is None else y0, "y0")
    problem.geom_x.validate_point(x0, interior=True)
    problem.geom_y.validate_point(y0, interior=True)
    return run(problem, problem.schedule(), x0, y0, stop)
