"""Entropy-regularized zero-sum matrix game, four ways.

Both players live on simplices with KL geometry, so the nonlinear PDHG
method is a pair of power-weighted multiplicative updates contracting at a
known linear rate. Predictive-update and optimistic MWU solve the same
regularized equilibrium and land on the same strategy pair.
"""

import time

import numpy as np

from nlpdhg.baselines import solve_game_omwu, solve_game_pu
from nlpdhg.bregman import softmax
from nlpdhg.data import gen_game_data
from nlpdhg.problems import MatrixGameProblem, game_optimality_residual, solve_matrix_game

m = n = 200
prob = MatrixGameProblem(gen_game_data(m, n, seed=1), lam=0.1)
theta = prob.schedule().theta
print(f"payoff {m} x {n}, lam = {prob.lam}, ||A||_{{1,inf}} = {prob.op_norm:.4f}")
print(f"contraction factor theta = {theta:.4f} per iteration")

results = {}
for name, solver, kwargs in [
    ("nonlinear PDHG", solve_matrix_game, dict(tol=1e-8, max_iters=20000)),
    ("PU", solve_game_pu, dict(tol=1e-10, max_iters=50000)),
    ("OMWU", solve_game_omwu, dict(tol=1e-10, max_iters=50000)),
]:
    t0 = time.perf_counter()
    rep = solver(prob, seed=0, **kwargs)
    elapsed = time.perf_counter() - t0
    r1, r2 = game_optimality_residual(prob, rep.x, rep.y)
    results[name] = rep
    print(f"{name:15s}: {rep.k:6d} iterations in {elapsed:5.2f}s, "
          f"residuals ({r1:.1e}, {r2:.1e})")

ref = results["nonlinear PDHG"]
for name in ("PU", "OMWU"):
    other = results[name]
    gap = np.abs(ref.x - other.x).sum() + np.abs(ref.y - other.y).sum()
    print(f"l1 distance nonlinear PDHG <-> {name}: {gap:.2e}")

# The equilibrium is a softmax fixed point in both directions.
soft = softmax(prob.operator.apply(ref.x) / prob.lam)
print("max |y - softmax(Ax/lam)|:", f"{np.max(np.abs(ref.y - soft)):.2e}")
