"""Trajectory parity of the three worked-problem solvers.

The pinned values were recorded from the solvers' former hand-written
iteration loops, before they were routed through ``engine.run``: iteration
count, converged flag and one probe inner product each of the terminal x and
y, under every ``stop_on`` and under residual-based stopping. Game and Lasso
iterate the same arithmetic as before and must match bit for bit. Logistic
regression now re-derives the dual logit w = logit(m y) inside ``dual_prox``
on every step instead of carrying it, which moves the iterates by roundoff
only.
"""

import numpy as np
import pytest

from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.problems.games import MatrixGameProblem, game_optimality_residual, solve_matrix_game
from nlpdhg.problems.lasso import LassoProblem, lasso_optimality_residual, solve_lasso
from nlpdhg.problems.logreg import L1LogRegProblem, l1logreg_dual_residual, solve_l1_logreg

# (k, converged, x @ probe_x, y @ probe_y)
PINNED = {
    ("game", "both"): (60, True, -0.1798662189503665, -0.11776196545944857),
    ("game", "regular"): (53, True, -0.17986621893068408, -0.11776195927946698),
    ("game", "ergodic"): (60, True, -0.1798662189503665, -0.11776196545944857),
    ("game", "residual"): (58, True, -0.17986621885396542, -0.1177619648241274),
    ("lasso", "both"): (1492, True, 0.13606655014892666, -0.1464145203323355),
    ("lasso", "regular"): (773, True, 0.13611755880625012, -0.14641381277624033),
    ("lasso", "ergodic"): (1492, True, 0.13606655014892666, -0.1464145203323355),
    ("lasso", "residual"): (6324, True, 0.13603773733675914, -0.14641279212212208),
    ("logreg", "both"): (1008, True, -0.9853746673269197, -0.10357217646913025),
    ("logreg", "regular"): (489, True, -0.9849466628923654, -0.10360012230304146),
    ("logreg", "ergodic"): (942, True, -0.985321806860035, -0.10357818822191132),
    ("logreg", "residual"): (5303, True, -0.985160886573566, -0.10357066008608362),
}

# Absolute tolerance on the probes; None means bitwise equality.
PROBE_ATOL = {"game": None, "lasso": None, "logreg": 1e-12}


def game_fixture():
    p = MatrixGameProblem(gen_game_data(6, 5, 1), 0.3)

    def solve(**kw):
        return solve_matrix_game(p, tol=1e-8, max_iters=20000, seed=2, **kw)

    return p, solve, lambda x, y: sum(game_optimality_residual(p, x, y)), 1e-8


def lasso_fixture():
    A, b, _ = gen_lasso_data(12, 20, 3, 0.1, 3)
    p = LassoProblem(A, b, 0.3 * np.max(np.abs(A.T @ b)) / 12)

    def solve(**kw):
        return solve_lasso(p, tol=1e-7, max_iters=20000, **kw)

    return p, solve, lambda x, y: lasso_optimality_residual(p, x, y), 1e-6


def logreg_fixture():
    B, _, _ = gen_logreg_data(10, 6, 4)
    p = L1LogRegProblem(B, 3.0)
    # From the default start the first dual step already passes the
    # regular test; a random interior start gives every rule a trajectory.
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.5, 1.5, p.n)
    x0 /= x0.sum()
    y0 = rng.uniform(0.2, 0.8, p.m) / p.m

    def solve(**kw):
        return solve_l1_logreg(p, x0=x0, y0=y0, tol=1e-6, max_iters=20000, **kw)

    return p, solve, lambda x, y: l1logreg_dual_residual(p, x, y), 1e-7


FIXTURES = {"game": game_fixture, "lasso": lasso_fixture, "logreg": logreg_fixture}


@pytest.mark.parametrize("kind, case", sorted(PINNED))
def test_trajectory_matches_pinned(kind, case):
    p, solve, residual, residual_tol = FIXTURES[kind]()
    if case == "residual":
        rep = solve(residual_fn=residual, residual_tol=residual_tol)
    else:
        rep = solve(stop_on=case)
    rng = np.random.default_rng(7)
    probe_x = rng.standard_normal(p.n)
    probe_y = rng.standard_normal(p.m)
    k, converged, want_x, want_y = PINNED[kind, case]
    assert (rep.k, rep.converged) == (k, converged)
    got = (float(rep.x @ probe_x), float(rep.y @ probe_y))
    atol = PROBE_ATOL[kind]
    if atol is None:
        assert got == (want_x, want_y)
    else:
        np.testing.assert_allclose(got, (want_x, want_y), rtol=0.0, atol=atol)
