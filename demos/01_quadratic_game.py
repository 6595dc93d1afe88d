"""Tour of the iteration engine on a strongly convex quadratic game.

The problem  min_x max_y  (1/2)||x||^2 + <c,x> + <y, A x> - (1/2)||y||^2 - <d,y>
has a saddle point we can solve for exactly, which makes it ideal for
watching each step-size regime do its thing.
"""

import numpy as np

from nlpdhg import (
    AccPrimalSchedule,
    ConstantSchedule,
    IterateState,
    LinearRateSchedule,
    StoppingRule,
    delta_diag,
    linear_rate_params,
    run,
    step,
)
from nlpdhg.problems import QuadraticSaddleProblem

rng = np.random.default_rng(42)
A = rng.standard_normal((6, 8))
prob = QuadraticSaddleProblem(
    A, gamma_g=0.5, gamma_h_star=0.8, c=rng.standard_normal(8), d=rng.standard_normal(6)
)
x_star, y_star = prob.saddle_point()
print("operator norm      :", round(prob.op_norm, 4))
print("analytic saddle |x|:", round(np.linalg.norm(x_star), 4))

x0 = np.zeros(8)
y0 = np.zeros(6)

# ----------------------------------------------------------------------
# 1. The basic method: fixed steps with tau * sigma * ||A||^2 < 1.
tau = sigma = 0.9 / prob.op_norm
rep = run(
    prob,
    ConstantSchedule(tau, sigma, prob.op_norm),
    x0,
    y0,
    StoppingRule(max_iters=20000, tol=1e-8),
)
print(f"\nbasic method   : {rep.k:6d} iterations, "
      f"|x - x*| = {np.linalg.norm(rep.x - x_star):.2e}")

# 2. Accelerated primal regime (uses gamma_g): O(1/K^2) ergodic rate.
rep = run(
    prob,
    AccPrimalSchedule(prob.gamma_g, prob.op_norm),
    x0,
    y0,
    StoppingRule(max_iters=20000, tol=1e-8),
)
print(f"accel primal   : {rep.k:6d} iterations, "
      f"|x - x*| = {np.linalg.norm(rep.x - x_star):.2e}")

# 3. Linear rate (uses both gammas): geometric contraction with a known
#    factor theta, visible in the Lyapunov diagnostic. Evaluating it needs
#    the saddle point, so this loop calls step and delta_diag itself.
theta, tau, sigma = linear_rate_params(prob.gamma_g, prob.gamma_h_star, prob.op_norm)
print(f"\nlinear-rate parameters: theta = {theta:.4f}, tau = {tau:.4f}, sigma = {sigma:.4f}")
sched = LinearRateSchedule(theta, tau, sigma, order="x-first")
state = IterateState.initial(x0, y0)
deltas = []
for _ in range(200):
    state = step(prob, state, sched)
    deltas.append(delta_diag(prob, state, sched, x_star, y_star))
print("Delta_k / Delta_{k-1} along the run (should hug theta):")
ratios = [deltas[k] / deltas[k - 1] for k in (5, 20, 50, 100)]
print("  at k = 5, 20, 50, 100:", " ".join(f"{r:.4f}" for r in ratios))
print(f"terminal |x - x*| after 200 steps: {np.linalg.norm(state.x - x_star):.2e}")
