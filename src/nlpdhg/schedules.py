"""Step-size schedules for the PDHG iteration family.

Four regimes, each naming the update ``order`` that ``engine.step`` runs:

* ``ConstantSchedule`` -- fixed (tau, sigma) with tau*sigma*||A||^2 < 1;
  overrelaxed, with theta = 1.
* ``AccPrimalSchedule`` -- for a strongly convex primal part (gamma_g > 0);
  theta_{k+1} = 1/sqrt(1 + gamma_g tau_k), tau shrinks, sigma grows; x-first.
* ``AccDualSchedule`` -- mirror regime for a strongly convex dual part
  (gamma_h_star > 0); tau grows, sigma shrinks; y-first.
* ``LinearRateSchedule`` -- fixed (theta, tau, sigma) from
  ``linear_rate_params`` when both parts are strongly convex; either order.

The accelerated schedules keep tau_k * sigma_k * ||A||^2 = 1 for every k; the
linear-rate parameters satisfy tau * sigma * theta * ||A||^2 = 1.
``history_weight`` weighs the history term of ``engine.delta_diag``.
``engine.run`` grows the ergodic weights by 1/theta after the first step.

``schedule_for(gamma_g, gamma_h_star, op_norm)`` picks the regime from a
problem's constants: linear rate (y-first) when both are positive, the
accelerated dual schedule when only gamma_h_star is.

Every step size, norm and constant goes through ``checks.check_real``, so a
NaN, an infinity or a bool is refused with one wording; so do the square of
the norm, every quotient a constructor takes of them and the product gamma
times the first step that an accelerated ``advance`` forms, which extreme
finite inputs can overflow or underflow to 0. The relations between them
(tau*sigma*||A||^2 < 1, 0 < theta < 1, also for the theta of
``linear_rate_params``) are checked here.
"""

from __future__ import annotations

import math

from .checks import check_real

__all__ = [
    "ConstantSchedule",
    "AccPrimalSchedule",
    "AccDualSchedule",
    "LinearRateSchedule",
    "linear_rate_params",
    "schedule_for",
]


def _norm_squared(op_norm, positive=True):
    """``op_norm**2`` of a checked ``op_norm``; ValueError in the
    ``check_real`` wording unless the square is finite and, if ``positive``,
    > 0. A float's ``**`` raises ``OverflowError`` above about 1.3e154, and
    the square underflows to 0 below about 1e-162."""
    op_norm = check_real("op_norm", op_norm, positive)
    try:
        square = op_norm**2
    except OverflowError:
        square = math.inf
    return check_real("op_norm**2", square, positive)


def _quotient(name, num, den):
    """``num / den`` as a float; ValueError naming ``name`` in the
    ``check_real`` wording unless it is finite and > 0. ``den`` is a product
    of checked numbers, which extreme inputs underflow to 0 or overflow."""
    return check_real(name, num / den if den else math.inf, positive=True)


def linear_rate_params(gamma_g, gamma_h_star, op_norm):
    """Contraction factor and step sizes for the linear-rate regime.

    Returns (theta, tau, sigma) with theta in (0, 1) and
    tau * sigma * theta * op_norm**2 == 1 up to roundoff. The expression for
    theta is rationalized so no cancellation occurs when
    gamma_g * gamma_h_star >> op_norm**2 (theta near 0) or << (theta near 1).
    """
    check_real("gamma_g", gamma_g, positive=True)
    check_real("gamma_h_star", gamma_h_star, positive=True)
    norm_sq = _norm_squared(op_norm)
    c = _quotient("gamma_g*gamma_h_star/op_norm**2", gamma_g * gamma_h_star, norm_sq)
    s = math.sqrt(1.0 + 4.0 / c)
    # theta = 1 - (c/2)(s - 1) = (s - 1)/(s + 1), with s - 1 = (4/c)/(s + 1).
    theta = (4.0 / c) / (s + 1.0) ** 2
    # A relation of the checked numbers: below about 1e-32, theta rounds to 1.
    if not theta < 1.0:
        raise ValueError(
            f"theta must lie in (0, 1), but gamma_g*gamma_h_star/op_norm**2 = {c!r} "
            f"rounds it to {theta!r}"
        )
    one_minus_theta = 2.0 / (s + 1.0)
    tau = _quotient("tau", one_minus_theta, gamma_g * theta)
    sigma = _quotient("sigma", one_minus_theta, gamma_h_star * theta)
    return theta, tau, sigma


class ConstantSchedule:
    """Fixed step sizes for the basic method; theta = 1 is the
    overrelaxation weight of 2x_{k+1} - x_k, which ``engine.step`` applies."""

    regime = "constant"
    order = "overrelaxed"

    def __init__(self, tau, sigma, op_norm):
        self.tau = check_real("tau", tau, positive=True)
        self.sigma = check_real("sigma", sigma, positive=True)
        # A zero operator takes any steps.
        norm_sq = _norm_squared(op_norm, positive=False)
        # A relation between the checked numbers, so it is tested here.
        if not tau * sigma * norm_sq < 1.0:
            raise ValueError(
                f"tau*sigma*||A||^2 = {tau * sigma * norm_sq!r} must be strictly below 1"
            )
        self.theta = 1.0
        self.k = 0

    def advance(self):
        self.k += 1


class AccPrimalSchedule:
    """Accelerated schedule driven by gamma_g.

    sigma0 defaults to gamma_g / (2 ||A||^2), the choice maximizing the K^2
    coefficient in the lower bound on the weight sum T_K. tau0 is pinned to
    1/(||A||^2 sigma0). theta starts at 1: the first step extrapolates fully.
    """

    regime = "acc-primal"
    order = "x-first"
    history_weight = 1.0

    def __init__(self, gamma_g, op_norm, sigma0=None):
        self.gamma = check_real("gamma_g", gamma_g, positive=True)
        norm_sq = _norm_squared(op_norm)
        if sigma0 is None:
            sigma0 = gamma_g / (2.0 * norm_sq)
        self.sigma0 = self.sigma = check_real("sigma0", sigma0, positive=True)
        self.tau = _quotient("tau0", 1.0, norm_sq * sigma0)
        # ``advance`` divides by theta = 1/sqrt(1 + gamma tau), 0 if this overflows.
        check_real("gamma_g*tau0", self.gamma * self.tau, positive=False)
        self.theta = 1.0
        self.tau0 = self.tau
        self.k = 0

    def advance(self):
        self.theta = 1.0 / math.sqrt(1.0 + self.gamma * self.tau)
        self.tau = self.theta * self.tau
        self.sigma = self.sigma / self.theta
        self.k += 1


class AccDualSchedule:
    """Mirror of the accelerated primal schedule, driven by gamma_h_star.

    tau0 is free (default gamma_h_star / (2 ||A||^2) by symmetry with the
    primal regime); sigma0 is pinned to 1/(||A||^2 tau0). theta starts at 0:
    the first step does not extrapolate.
    """

    regime = "acc-dual"
    order = "y-first"
    history_weight = 1.0

    def __init__(self, gamma_h_star, op_norm, tau0=None):
        self.gamma = check_real("gamma_h_star", gamma_h_star, positive=True)
        norm_sq = _norm_squared(op_norm)
        if tau0 is None:
            tau0 = gamma_h_star / (2.0 * norm_sq)
        self.tau0 = self.tau = check_real("tau0", tau0, positive=True)
        self.sigma = _quotient("sigma0", 1.0, norm_sq * tau0)
        # ``advance`` divides by theta = 1/sqrt(1 + gamma sigma), 0 if this overflows.
        check_real("gamma_h_star*sigma0", self.gamma * self.sigma, positive=False)
        self.theta = 0.0
        self.sigma0 = self.sigma
        self.k = 0

    def advance(self):
        self.theta = 1.0 / math.sqrt(1.0 + self.gamma * self.sigma)
        self.sigma = self.theta * self.sigma
        self.tau = self.tau / self.theta
        self.k += 1


class LinearRateSchedule:
    """Fixed (theta, tau, sigma) for the linear-rate regimes."""

    def __init__(self, theta, tau, sigma, order="x-first"):
        if order not in ("x-first", "y-first"):
            raise ValueError(f"order must be 'x-first' or 'y-first', got {order!r}")
        # An open interval, not a sign, so it is tested here.
        if not (0.0 < theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {theta}")
        self.tau = check_real("tau", tau, positive=True)
        self.sigma = check_real("sigma", sigma, positive=True)
        self.theta = float(theta)
        self.order = order
        self.k = 0

    @property
    def regime(self):
        return "linear-rate-" + self.order

    @property
    def history_weight(self):
        return self.theta

    def advance(self):
        self.k += 1


def schedule_for(gamma_g, gamma_h_star, op_norm):
    """A fresh schedule for a problem with these constants.

    Both strong-convexity constants positive: the linear-rate parameters,
    y-first, since the dual update at the primal extrapolation x_k + theta
    (x_k - x_{k-1}) is the form the linear-rate guarantee is proved for.
    Only gamma_h_star positive: the accelerated dual schedule at its default
    tau0. A zero norm becomes 1.0, since any step serves a zero operator.
    A constant is absent at 0, and a negative or NaN one is refused.
    """
    check_real("gamma_g", gamma_g, positive=False)
    check_real("gamma_h_star", gamma_h_star, positive=False)
    norm = 1.0 if op_norm == 0.0 else op_norm
    if gamma_g > 0 and gamma_h_star > 0:
        return LinearRateSchedule(*linear_rate_params(gamma_g, gamma_h_star, norm), order="y-first")
    if gamma_h_star > 0:
        return AccDualSchedule(gamma_h_star, norm)
    raise ValueError(
        f"no schedule for gamma_g={gamma_g}, gamma_h_star={gamma_h_star}: "
        "gamma_h_star must be positive"
    )
