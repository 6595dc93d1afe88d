"""The three benchmark workloads.

Each workload is a closed loop driven by one caller: the next round starts
only when the previous one has returned and been certified. A run's inputs
are a fixed set of *instances* made from the run seed; a *pass* sets up each
instance afresh (generates its data and builds its problems, timed as
set-up) and solves it, and rounds repeat passes until the phase ends. A
round is one *solve* as the benchmark counts it:

* ``logreg-desk``: one ``solve_l1_logreg`` call on one of three
  l1-logistic instances of the desk spec (500 x 2000, lam = 100).
* ``game-swarm``: one of 100 entropy-regularized 100 x 100 games
  (lam = 0.1): generate the payoff, build the problem, then
  ``solve_matrix_game``.
* ``lasso-path``: one point of a Lasso regularization path: a 5-point
  geometric lambda grid from 0.5 lam_max down to 0.05 lam_max on one
  50 x 250 matrix, solved by ``solve_lasso`` and then by
  ``baselines.fista_lasso``. The instances are eight such paths, each on its
  own matrix; a path is set up in the round that solves its first point and
  its five points share that matrix.

All solves use tol = 1e-4. The solver functions are called directly, never
through ``nlpdhg.bench.run_experiment``, which turns exceptions into NaN
rows. Each call is timed from outside; its certificate is computed after the
clock has stopped.
"""

from __future__ import annotations

import time

import numpy as np

import certificates
from nlpdhg import baselines, data
from nlpdhg.problems import (
    L1LogRegProblem,
    LassoProblem,
    MatrixGameProblem,
    solve_l1_logreg,
    solve_lasso,
    solve_matrix_game,
)

TOL = 1e-4

# Solver spans. Entry points of nlpdhg's own solvers are the engine layer:
# their self time is the iteration loop's bookkeeping.
ENGINE_SOLVE = "engine.solve"
FISTA = "baselines.fista"


def derive_seed(seed, *keys):
    """A 64-bit seed for the stream named by ``keys`` under the run seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


def solve_call(tr, span, solver, problem, certify, **kwargs):
    """Call one solver, timed from outside, then certify its answer.

    Any exception the solver raises is a failed solve, recorded with its
    class and message; it does not stop the benchmark.
    """
    t0 = time.perf_counter()
    try:
        report = tr.call(span, solver, problem, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- every failure is counted, never hidden
        wall = time.perf_counter() - t0
        return {
            "solver": span,
            "wall_s": wall,
            "ok": False,
            "reason": f"raised {type(exc).__name__}: {exc}",
            "gap_rel": float("nan"),
            "iters": 0,
            "trace_len": 0,
        }
    wall = time.perf_counter() - t0
    verdict = certificates.check(report, *certify)
    return {
        "solver": span,
        "wall_s": wall,
        "iters": int(report.k),
        "trace_len": len(report.residual_trace),
        **verdict,
    }


def make_round(key, calls, setup=None):
    """One round: its solver calls and, if it set up an instance, that
    instance's index and set-up time."""
    solve_s = sum(c["wall_s"] for c in calls)
    setup_key, setup_s = setup if setup is not None else (None, None)
    return {
        "key": key,
        "setup_key": setup_key,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "round_s": solve_s + (setup_s or 0.0),
        "ok": all(c["ok"] for c in calls),
        "calls": calls,
    }


class Workload:
    """Instances ``0 .. instances - 1`` of a run, all made from ``seed``."""

    def __init__(self, seed):
        self.seed = seed


class LogregDesk(Workload):
    name = "logreg-desk"
    m, d, lam = 500, 2000, 100.0
    # Three instances of the desk spec per run. Iterations to tol depend on
    # the instance (9932 to 10900 over seeds 0-5), so a single instance per
    # run would make solve time depend on the seed by about 10%.
    instances = 3
    grid = instances
    operator_nbytes = m * d * 8

    def round(self, i, tr, **solver_kwargs):
        k = i % self.grid
        t0 = time.perf_counter()
        B, _, _ = tr.call("data.gen", data.gen_logreg_data, self.m, self.d, derive_seed(self.seed, k))
        problem = tr.call("problems.build", L1LogRegProblem, B, self.lam)
        setup_s = time.perf_counter() - t0
        certify = (
            lambda x, y: certificates.logreg_gap(B, self.lam, x, y),
            lambda x, y: certificates.logreg_domain_ok(B, x, y),
        )
        call = solve_call(
            tr, ENGINE_SOLVE, solve_l1_logreg, problem, certify, tol=TOL, **solver_kwargs
        )
        return make_round(("instance", k), [call], setup=(k, setup_s))


class GameSwarm(Workload):
    name = "game-swarm"
    m, n, lam = 100, 100, 0.1
    # A run cycles through 100 games, so that each is solved many times and
    # the 90th percentile over games has ten games beyond it.
    instances = 100
    grid = instances
    operator_nbytes = m * n * 8

    def round(self, i, tr, **solver_kwargs):
        g = i % self.grid
        t0 = time.perf_counter()
        payoff = tr.call("data.gen", data.gen_game_data, self.m, self.n, derive_seed(self.seed, g))
        problem = tr.call("problems.build", MatrixGameProblem, payoff, self.lam)
        setup_s = time.perf_counter() - t0
        certify = (
            lambda x, y: certificates.game_gap(payoff, self.lam, x, y),
            lambda x, y: certificates.game_domain_ok(payoff, x, y),
        )
        call = solve_call(
            tr, ENGINE_SOLVE, solve_matrix_game, problem, certify, tol=TOL, **solver_kwargs
        )
        return make_round(("game", g), [call], setup=(g, setup_s))


class LassoPath(Workload):
    name = "lasso-path"
    # 50 x 250 keeps a lam point's two solves at 20-80 ms, so that every
    # point is solved some twenty times a run and its fastest round can fall
    # in one of the fast stretches of a shared core, which last tens of
    # milliseconds (see end_to_end in run.py). At 200 x 1000 a point took
    # 0.1-0.3 s, and ten runs spread by up to 0.43 of their median on a
    # shared 2-vCPU virtual machine.
    m, n, sparsity, noise = 50, 250, 10, 0.1
    # Eight paths of five lam each. How many power iterations norm_2_2 needs
    # depends on the matrix (114 to 384 over seeds 0-7), so few matrices per
    # run would make every timing depend on the seed; eight average that out.
    instances, points = 8, 5
    grid = instances * points
    operator_nbytes = m * n * 8

    def build_path(self, k, tr):
        A, b, _ = tr.call(
            "data.gen", data.gen_lasso_data, self.m, self.n, self.sparsity, self.noise,
            derive_seed(self.seed, k),
        )
        lam_max = float(np.max(np.abs(A.T @ b))) / self.m
        path = []
        for lam in lam_max * np.geomspace(0.5, 0.05, self.points):
            problem = tr.call("problems.build", LassoProblem, A, b, lam)
            certify = (
                lambda x, y, lam=lam: certificates.lasso_gap(A, b, lam, x),
                lambda x, y: certificates.lasso_domain_ok(A, x),
            )
            path.append((problem, certify))
        return path

    def round(self, i, tr, **solver_kwargs):
        j = i % self.grid
        k, point = divmod(j, self.points)
        setup = None
        if point == 0:
            t0 = time.perf_counter()
            self.path = self.build_path(k, tr)
            setup = (k, time.perf_counter() - t0)
        problem, certify = self.path[point]
        calls = [
            solve_call(tr, ENGINE_SOLVE, solve_lasso, problem, certify, tol=TOL, **solver_kwargs),
            solve_call(tr, FISTA, baselines.fista_lasso, problem, certify, tol=TOL, **solver_kwargs),
        ]
        return make_round(("lambda", j), calls, setup=setup)


WORKLOADS = {w.name: w for w in (LogregDesk, GameSwarm, LassoPath)}
