"""Trajectory parity of the worked-problem solvers and the baselines.

The pinned values were recorded from the solvers' former hand-written
iteration loops, before they were routed through ``engine.run``: iteration
count, converged flag and one probe inner product each of the terminal x and
y, under every ``stop_on`` and under residual-based stopping. Game and Lasso
iterate the same arithmetic as before and must match bit for bit. Logistic
regression now re-derives the dual logit w = logit(m y) inside ``dual_prox``
on every step instead of carrying it, which moves the iterates by roundoff
only.

The baselines are pinned the same way, from their own former hand-written
loops, and must match bit for bit: iteration count, converged flag, regime,
probes of the terminal and ergodic points, and a digest of the full residual
trace. So are the PU and OMWU game solvers, recorded before they shared one
multiplicative-weights loop, and ``engine.run`` under each of the five
schedules, recorded while every regime still had its own step function:
probes, the residual trace and every ``delta_diag`` value.
"""

import hashlib

import numpy as np
import pytest

from nlpdhg.baselines import (
    fista_lasso,
    solve_fb_logreg,
    solve_game_omwu,
    solve_game_pu,
    solve_linear_pdhg_game,
    solve_linear_pdhg_logreg,
)
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.engine import IterateState, StoppingRule, delta_diag, run, step
from nlpdhg.problems.games import MatrixGameProblem, game_optimality_residual, solve_matrix_game
from nlpdhg.problems.lasso import LassoProblem, lasso_optimality_residual, solve_lasso
from nlpdhg.problems.logreg import L1LogRegProblem, l1logreg_dual_residual, solve_l1_logreg
from nlpdhg.problems.quadratic import QuadraticSaddleProblem
from nlpdhg.schedules import (
    AccDualSchedule,
    AccPrimalSchedule,
    ConstantSchedule,
    LinearRateSchedule,
    linear_rate_params,
)

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

    def solve(tol=1e-8, **kw):
        return solve_matrix_game(p, tol=tol, max_iters=20000, seed=2, **kw)

    return p, solve, lambda x, y: sum(game_optimality_residual(p, x, y)), 1e-8


def lasso_fixture():
    A, b, _ = gen_lasso_data(12, 20, 3, 0.1, 3)
    p = LassoProblem(A, b, 0.3 * np.max(np.abs(A.T @ b)) / 12)

    def solve(tol=1e-7, **kw):
        return solve_lasso(p, tol=tol, max_iters=20000, **kw)

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

    def solve(tol=1e-6, **kw):
        return solve_l1_logreg(p, x0=x0, y0=y0, tol=tol, max_iters=20000, **kw)

    return p, solve, lambda x, y: l1logreg_dual_residual(p, x, y), 1e-7


FIXTURES = {"game": game_fixture, "lasso": lasso_fixture, "logreg": logreg_fixture}


@pytest.mark.parametrize("kind, case", sorted(PINNED))
def test_trajectory_matches_pinned(kind, case):
    p, solve, residual, residual_tol = FIXTURES[kind]()
    if case == "residual":
        rep = solve(residual_fn=residual, tol=residual_tol)
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


# (k, converged, regime, probes of x, y, x_ergodic and y_ergodic, digest of
# the residual trace)
BASELINE_PINNED = {
    ("linear-pdhg-logreg", "both"): (
        105, True, "linear-pdhg",
        (-2.955513433345664, 0.08269300229854387, -2.949448741040206, 0.08278204208903239),
        "e817c2bd5da6e231",
    ),
    ("linear-pdhg-logreg", "regular"): (
        54, True, "linear-pdhg",
        (-2.9556307053888418, 0.08277355609564284, -2.9322259099635897, 0.08297211114395149),
        "b9ada9846dbbe987",
    ),
    ("linear-pdhg-logreg", "ergodic"): (
        105, True, "linear-pdhg",
        (-2.955513433345664, 0.08269300229854387, -2.949448741040206, 0.08278204208903239),
        "e817c2bd5da6e231",
    ),
    ("linear-pdhg-game", "both"): (
        115, True, "linear-pdhg",
        (-0.17986621911431824, -0.11776196610550953, -0.17986622204983876, -0.11776197998347768),
        "c514aa4bd9e7bc6e",
    ),
    ("linear-pdhg-game", "regular"): (
        32, True, "linear-pdhg",
        (-0.17986621401291783, -0.11776196347447741, -0.17994858838744715, -0.11815129855995953),
        "d141c56efd65cad6",
    ),
    ("linear-pdhg-game", "ergodic"): (
        115, True, "linear-pdhg",
        (-0.17986621911431824, -0.11776196610550953, -0.17986622204983876, -0.11776197998347768),
        "c514aa4bd9e7bc6e",
    ),
    ("fb-logreg", None): (
        17, True, "fb-splitting",
        (-2.974939664989387, 0.0, -2.974939664989387, 0.0),
        "6fb84a002c2d6308",
    ),
    ("fista", None): (
        183, True, "fista",
        (0.13602494290661524, -0.14641454249105923, 0.13602494290661524, -0.14641454249105923),
        "f93f76276fc7c4d9",
    ),
}


def _baseline_solve(solver, stop_on):
    if solver == "fista":
        A, b, _ = gen_lasso_data(12, 20, 3, 0.1, 3)
        p = LassoProblem(A, b, 0.3 * np.max(np.abs(A.T @ b)) / 12)
        return fista_lasso(p, tol=1e-7, max_iters=20000)
    if solver == "linear-pdhg-game":
        p = MatrixGameProblem(gen_game_data(6, 5, 1), 0.3)
        return solve_linear_pdhg_game(p, tol=1e-8, max_iters=20000, seed=2, stop_on=stop_on)
    B, _, _ = gen_logreg_data(10, 6, 4)
    p = L1LogRegProblem(B, 3.0)
    if solver == "fb-logreg":
        return solve_fb_logreg(p, tol=1e-6, max_iters=20000)
    return solve_linear_pdhg_logreg(p, tol=1e-4, max_iters=20000, stop_on=stop_on)


@pytest.mark.parametrize("solver, stop_on", list(BASELINE_PINNED))
def test_baseline_trajectory_matches_pinned(solver, stop_on):
    rep = _baseline_solve(solver, stop_on)
    rng = np.random.default_rng(7)
    probe_x = rng.standard_normal(rep.x.shape[0])
    probe_y = rng.standard_normal(rep.y.shape[0])
    probes = tuple(
        float(v)
        for v in (rep.x @ probe_x, rep.y @ probe_y, rep.x_ergodic @ probe_x, rep.y_ergodic @ probe_y)
    )
    digest = hashlib.sha256(np.array(rep.residual_trace, dtype=float).tobytes()).hexdigest()
    k, converged, regime, want_probes, want_digest = BASELINE_PINNED[solver, stop_on]
    assert (rep.k, rep.converged, rep.regime) == (k, converged, regime)
    assert len(rep.residual_trace) == k
    assert probes == want_probes
    assert digest[:16] == want_digest


# Engine step regimes on one quadratic game, pinned bitwise: probes of x, y,
# x_ergodic and y_ergodic, and digests of the residual trace and of the
# Lyapunov values recorded against the saddle point.
ENGINE_PINNED = {
    "constant": (
        (-0.9206685046772778, 0.31163320541842515, -0.8311464635741167, 0.24870856422255694),
        "bddc238fa1ab1c65", "de55e5e81e8187f6",
    ),
    "acc-primal": (
        (-0.9206378192020286, 0.3116305201672711, -0.9143058005698085, 0.3116143802957118),
        "fa8c897f17bbb617", "66b6cbfa115961e4",
    ),
    "acc-dual": (
        (-0.9206759090150048, 0.31163779769993005, -0.8973318152499462, 0.2972772069244023),
        "ec8fd7c72d09944b", "a1a5362ab5566314",
    ),
    "linear-rate-x-first": (
        (-0.9206685043789523, 0.311633203871791, -0.9206684960415986, 0.31163320367501873),
        "c8b8ad86ca78b996", "66357c089599d1c0",
    ),
    "linear-rate-y-first": (
        (-0.9206685043789486, 0.31163320387178683, -0.9206684960411602, 0.31163320367431574),
        "734a170876063c7a", "3e3e1326c65485f0",
    ),
}


def _quadratic_game():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 7))
    return QuadraticSaddleProblem(
        A, gamma_g=0.4, gamma_h_star=0.3, c=rng.standard_normal(7), d=rng.standard_normal(5)
    )


def _engine_schedule(name, p):
    if name == "constant":
        return ConstantSchedule(0.9 / p.op_norm, 0.9 / p.op_norm, p.op_norm)
    if name == "acc-primal":
        return AccPrimalSchedule(p.gamma_g, p.op_norm)
    if name == "acc-dual":
        return AccDualSchedule(p.gamma_h_star, p.op_norm)
    params = linear_rate_params(p.gamma_g, p.gamma_h_star, p.op_norm)
    return LinearRateSchedule(*params, order=name.removeprefix("linear-rate-"))


def _digest(pairs):
    return hashlib.sha256(np.array(pairs, dtype=float).tobytes()).hexdigest()[:16]


def _probes(rep):
    rng = np.random.default_rng(7)
    probe_x = rng.standard_normal(rep.x.shape[0])
    probe_y = rng.standard_normal(rep.y.shape[0])
    return tuple(
        float(v)
        for v in (rep.x @ probe_x, rep.y @ probe_y, rep.x_ergodic @ probe_x, rep.y_ergodic @ probe_y)
    )


@pytest.mark.parametrize("name", list(ENGINE_PINNED))
def test_engine_schedule_matches_pinned(name):
    """``run`` gives the probes and the residual trace; the (k, Delta_k)
    pairs come from ``delta_diag`` after each ``step`` of the same
    trajectory, with the schedule already advanced."""
    p = _quadratic_game()
    n, m = p.operator.cols, p.operator.rows
    rep = run(p, _engine_schedule(name, p), np.ones(n), -np.ones(m), StoppingRule(max_iters=300))
    sched = _engine_schedule(name, p)
    state = IterateState.initial(np.ones(n), -np.ones(m))
    ref = p.saddle_point()
    deltas = []
    for _ in range(300):
        state = step(p, state, sched)
        deltas.append((state.k, delta_diag(p, state, sched, *ref)))
    assert rep.k == 300
    np.testing.assert_array_equal(state.x, rep.x)
    np.testing.assert_array_equal(state.y, rep.y)
    assert (_probes(rep), _digest(rep.residual_trace), _digest(deltas)) == ENGINE_PINNED[name]


# PU and OMWU on the game fixture, pinned bitwise: k, converged, probes of
# x and y, and a digest of the residual trace.
MWU_PINNED = {
    "pu": (146, True, (-0.17986621054037016, -0.117761942583449), "16e847631b875c60"),
    "omwu": (192, True, (-0.17986620751664464, -0.11776193460548215), "8a785024408ef7c4"),
}


@pytest.mark.parametrize("solver", list(MWU_PINNED))
def test_mwu_trajectory_matches_pinned(solver):
    p = MatrixGameProblem(gen_game_data(6, 5, 1), 0.3)
    solve = {"pu": solve_game_pu, "omwu": solve_game_omwu}[solver]
    rep = solve(p, tol=1e-8, seed=2)
    got = (rep.k, rep.converged, _probes(rep)[:2], _digest(rep.residual_trace))
    assert got == MWU_PINNED[solver]
