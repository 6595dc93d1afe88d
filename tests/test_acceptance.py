"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Tolerances are pinned here, including two floating-point floors:

* geometric contraction checks carry an additive floor of 1e-28, since a
  divergence between converged double-precision iterates saturates near
  (eps * scale)^2 and cannot follow theta^K below that;
* the objective comparison between the two logistic solvers is one-sided
  (baseline reaches the nonlinear solver's terminal objective, with 1e-4
  relative slack). The data is linearly separable by construction (d > m),
  so optimal objectives sit many orders of magnitude below either solver's
  terminal value and a two-sided relative comparison would be meaningless.
"""

import time

import numpy as np
import pytest

from nlpdhg.baselines import (
    prox_gradient_lasso,
    solve_game_omwu,
    solve_game_pu,
    solve_linear_pdhg_logreg,
)
from nlpdhg.bench import ExperimentSpec, rows_to_csv, run_experiment
from nlpdhg.bregman import BinaryEntropyAverage, NegativeEntropy, Quadratic, three_point_check
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.engine import IterateState, delta_diag, step
from nlpdhg.operators import DenseOperator, norm_1_2, norm_1_inf, norm_2_2
from nlpdhg.problems.games import MatrixGameProblem, game_optimality_residual, solve_matrix_game
from nlpdhg.problems.lasso import LassoProblem, lasso_optimality_residual, shrink1, solve_lasso
from nlpdhg.problems.logreg import (
    L1LogRegProblem,
    l1logreg_dual_residual,
    recover_v,
    solve_l1_logreg,
)
from nlpdhg.problems.quadratic import QuadraticSaddleProblem
from nlpdhg.schedules import (
    AccDualSchedule,
    AccPrimalSchedule,
    LinearRateSchedule,
    linear_rate_params,
)

from _oracles import (
    binary_entropy_prox_oracle,
    entropy_prox_oracle,
    euclidean_prox_oracle,
    shrink1_scalar_oracle,
)


def _verdict(num, name, ok, elapsed, budget):
    print(f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_schedule_identity():
    t0 = time.perf_counter()
    ok = True
    L = 1.7
    sched_p = AccPrimalSchedule(0.8, L, sigma0=0.3)
    sched_d = AccDualSchedule(2.5, L, tau0=0.6)
    for _ in range(10000):
        sched_p.advance()
        sched_d.advance()
        ok &= abs(sched_p.tau * sched_p.sigma * L**2 - 1.0) < 1e-10
        ok &= abs(sched_d.tau * sched_d.sigma * L**2 - 1.0) < 1e-10
    rng = np.random.default_rng(0)
    for _ in range(50):
        g, h = 10.0 ** rng.uniform(-2, 2, 2)
        nrm = 10.0 ** rng.uniform(-1, 1)
        theta, tau, sigma = linear_rate_params(g, h, nrm)
        ok &= abs(tau * sigma * theta * nrm**2 - 1.0) < 1e-12
    _verdict(1, "schedule-identity", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_weight_sum_closed_form():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(1)
    checkpoints = {1, 10, 100, 1000, 10000}
    for _ in range(20):
        gamma = 10.0 ** rng.uniform(-1, 1)
        nrm = 10.0 ** rng.uniform(-1, 1)
        sigma0 = 10.0 ** rng.uniform(-2, 2)
        sched = AccPrimalSchedule(gamma, nrm, sigma0=sigma0)
        a = gamma / (2 * nrm**2)
        T = 0.0
        for k in range(1, 10001):
            T += sched.sigma / sigma0
            sched.advance()
            if k in checkpoints:
                closed = nrm**2 * (sched.sigma**2 - sigma0**2) / (gamma * sigma0)
                ok &= abs(T - closed) <= 1e-9 * closed
            lo = sigma0 * k / (a + sigma0) + a * sigma0 * k**2 / (2 * (a + sigma0) ** 2)
            hi = k + a * k**2 / (2 * sigma0)
            ok &= lo <= T * (1 + 1e-12) + 1e-12 and T <= hi * (1 + 1e-12) + 1e-12
    # mirror regime: weights tau_{k-1}/tau0 telescope against tau
    sched = AccDualSchedule(4.0, 1.3, tau0=0.2)
    T = 0.0
    for k in range(1, 10001):
        T += sched.tau / 0.2
        sched.advance()
    closed = 1.3**2 * (sched.tau**2 - 0.2**2) / (4.0 * 0.2)
    ok &= abs(T - closed) <= 1e-9 * closed
    _verdict(2, "weight-sum-closed-form", ok, time.perf_counter() - t0, 5.0)


def test_criterion_03_linear_rate_contraction():
    t0 = time.perf_counter()
    ok = True
    problems = [QuadraticSaddleProblem(np.array([[1.0]]), 1.0, 1.0)]
    rng = np.random.default_rng(2)
    for _ in range(3):
        A = rng.standard_normal((4, 5))
        problems.append(
            QuadraticSaddleProblem(
                A,
                gamma_g=rng.uniform(0.1, 0.4),
                gamma_h_star=rng.uniform(0.1, 0.4),
                c=rng.standard_normal(5),
                d=rng.standard_normal(4),
            )
        )
    for prob in problems:
        xs, ys = prob.saddle_point()
        theta, tau, sigma = linear_rate_params(prob.gamma_g, prob.gamma_h_star, prob.op_norm)
        sched = LinearRateSchedule(theta, tau, sigma, order="x-first")
        n, m = prob.operator.cols, prob.operator.rows
        st = IterateState.initial(np.ones(n), np.ones(m))
        d0 = delta_diag(prob, st, sched, xs, ys)
        for K in range(1, 201):
            st = step(prob, st, sched)
            dK = delta_diag(prob, st, sched, xs, ys)
            ok &= dK <= theta**K * d0 * (1 + 1e-9) + 1e-28
            lower = prob.geom_y.divergence(ys, st.y) / sigma
            ok &= lower <= dK * (1 + 1e-9) + 1e-28
    _verdict(3, "linear-rate-contraction", ok, time.perf_counter() - t0, 5.0)


def test_criterion_04_divergence_axioms():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(3)
    n_pairs = 10000

    def simplex(n, size):
        p = rng.random((size, n)) + 1e-9
        return p / p.sum(axis=1, keepdims=True)

    # negative entropy on the 5-simplex: KL rows, computed vectorized, and
    # Pinsker / axioms; the per-pair API checks below run on every sample.
    geoms = []
    xs = simplex(5, n_pairs)
    xbs = simplex(5, n_pairs)
    kl = np.sum(xs * np.log(xs / xbs), axis=1)
    ok &= bool(np.all(kl >= 0.0))
    ok &= bool(np.all(kl >= 0.5 * np.sum(np.abs(xs - xbs), axis=1) ** 2 - 1e-12))
    geoms.append((NegativeEntropy(5), xs, xbs, kl))

    # quadratic(1): exact half squared distance
    q_x = rng.standard_normal((n_pairs, 6))
    q_xb = rng.standard_normal((n_pairs, 6))
    q_d = 0.5 * np.sum((q_x - q_xb) ** 2, axis=1)
    ok &= bool(np.all(q_d >= 0.0))
    geoms.append((Quadratic(1.0), q_x, q_xb, q_d))

    # averaged binary entropy, m=5, matching norm l2
    m = 5
    b_x = rng.uniform(1e-6, 1 - 1e-6, (n_pairs, m)) / m
    b_xb = rng.uniform(1e-6, 1 - 1e-6, (n_pairs, m)) / m
    s, sb = m * b_x, m * b_xb
    b_d = (np.sum(s * np.log(s / sb) + (1 - s) * np.log((1 - s) / (1 - sb)), axis=1)
           / (4 * m**2))
    ok &= bool(np.all(b_d >= 0.0))
    ok &= bool(np.all(b_d >= 0.5 * np.sum((b_x - b_xb) ** 2, axis=1) - 1e-15))
    geoms.append((BinaryEntropyAverage(m), b_x, b_xb, b_d))

    for geom, X, XB, D in geoms:
        # identity of indiscernibles, API agreement, three-point residual
        for i in range(n_pairs):
            d_api = geom.divergence(X[i], XB[i])
            ok &= abs(d_api - D[i]) <= 1e-10 * max(1.0, D[i])
            ok &= geom.divergence(XB[i], XB[i]) <= 1e-12
            xh = XB[(i + 7) % n_pairs]
            scale = max(1.0, D[i])
            ok &= three_point_check(geom, X[i], xh, XB[i]) <= 1e-10 * scale
    _verdict(4, "divergence-axioms", ok, time.perf_counter() - t0, 10.0)


def test_criterion_05_logreg_optimality():
    t0 = time.perf_counter()
    B, _, _ = gen_logreg_data(50, 200, 0)
    prob = L1LogRegProblem(B, 100.0)
    rep = solve_l1_logreg(
        prob,
        residual_fn=lambda x, y: l1logreg_dual_residual(prob, x, y),
        tol=9e-5,
        max_iters=100000,
    )
    resid = l1logreg_dual_residual(prob, rep.x, rep.y)
    v = recover_v(rep.x, prob.lam)
    obj_nl = prob.objective_v(v)
    lin = solve_linear_pdhg_logreg(prob, tol=1e-4, max_iters=6000, stop_on="regular")
    obj_lin = prob.objective_v(lin.x)
    ok = (
        resid < 1e-4
        and np.abs(v).sum() <= prob.lam * (1 + 1e-12)
        and obj_lin <= obj_nl * (1 + 1e-4)
    )
    _verdict(5, "logreg-optimality", ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_matrix_game_optimality():
    t0 = time.perf_counter()
    A = gen_game_data(100, 100, 0)
    prob = MatrixGameProblem(A, 0.1)
    pdhg = solve_matrix_game(prob, tol=1e-10, max_iters=50000, seed=0)
    r1, r2 = game_optimality_residual(prob, pdhg.x, pdhg.y)
    pu = solve_game_pu(prob, tol=1e-11, max_iters=100000, seed=0)
    omwu = solve_game_omwu(prob, tol=1e-11, max_iters=100000, seed=0)
    pairs = [(pdhg, pu), (pdhg, omwu), (pu, omwu)]
    agree = all(
        np.abs(a.x - b.x).sum() < 1e-4 and np.abs(a.y - b.y).sum() < 1e-4 for a, b in pairs
    )
    ok = r1 < 1e-5 and r2 < 1e-5 and agree
    _verdict(6, "matrix-game-optimality", ok, time.perf_counter() - t0, 60.0)


def test_criterion_07_lasso_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for seed in range(20):
        A, b, _ = gen_lasso_data(30, 60, 5, 0.1, 100 + seed)
        lam = 0.3 * np.max(np.abs(A.T @ b)) / 30
        prob = LassoProblem(A, b, lam)
        rep = solve_lasso(
            prob,
            residual_fn=lambda x, y: lasso_optimality_residual(prob, x, y),
            tol=9e-6,
            max_iters=400000,
        )
        x_fb = prox_gradient_lasso(A, b, lam, tol=1e-10)
        ok &= abs(prob.objective(rep.x) - prob.objective(x_fb)) < 1e-6
        ok &= lasso_optimality_residual(prob, rep.x, rep.y) < 1e-5
        aty = np.abs(prob.operator.adjoint_apply(rep.y))
        ok &= bool(np.all(rep.x[aty < lam * (1 - 1e-3)] == 0.0))
    _verdict(7, "lasso-oracle-equivalence", ok, time.perf_counter() - t0, 30.0)


def test_criterion_08_prox_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(4)

    for _ in range(50):
        dim = int(rng.integers(2, 7))
        # multiplicative weights (logistic primal prox, lam = 0)
        x_bar = rng.random(dim) + 0.05
        x_bar /= x_bar.sum()
        cost = rng.standard_normal(dim)
        tau = 10.0 ** rng.uniform(-1, 0.5)
        mw = np.exp(np.log(x_bar) - tau * cost)
        mw /= mw.sum()
        ok &= np.max(np.abs(mw - entropy_prox_oracle(x_bar, cost, tau, 0.0))) < 1e-8

        # game update (entropic prox with lam > 0)
        lam = 10.0 ** rng.uniform(-1, 0.5)
        game = np.exp((np.log(x_bar) - tau * cost) / (1 + lam * tau))
        game /= game.sum()
        ok &= np.max(np.abs(game - entropy_prox_oracle(x_bar, cost, tau, lam))) < 1e-8

        # sigmoid/logit update (logistic dual prox)
        m = dim
        y_bar = rng.uniform(0.1, 0.9, m) / m
        z = rng.standard_normal(m)
        sigma = 10.0 ** rng.uniform(-1, 1)
        w = (4 * m * sigma * z + np.log(m * y_bar / (1 - m * y_bar))) / (1 + 4 * m * sigma)
        logit = 1.0 / (m + m * np.exp(-w))
        ok &= np.max(np.abs(logit - binary_entropy_prox_oracle(y_bar, z, sigma, m))) < 1e-8

        # shrink1 against subgradient bisection
        v = float(rng.uniform(-4, 4))
        beta = float(rng.uniform(0.05, 2.0))
        ok &= abs(shrink1(np.array([v]), beta)[0] - shrink1_scalar_oracle(v, beta)) < 1e-8

        # lasso dual prox against direct minimization
        prob = LassoProblem(rng.standard_normal((m, dim)), rng.standard_normal(m), 0.5)
        y_b = rng.standard_normal(m)
        x_t = rng.standard_normal(dim)
        sg = 10.0 ** rng.uniform(-1, 1)
        got = prob.dual_prox(prob.operator.apply(x_t), y_b, sg)
        ax_b = prob.operator.apply(x_t) - prob.b

        def obj(y, ax_b=ax_b, prob=prob, y_b=y_b, sg=sg):
            val = (-y @ ax_b + 0.5 * prob.m * y @ y
                   + 0.5 * prob.m / sg * np.sum((y - y_b) ** 2))
            grad = -ax_b + prob.m * y + prob.m / sg * (y - y_b)
            return val, grad

        ok &= np.max(np.abs(got - euclidean_prox_oracle(obj, y_b))) < 1e-8
    _verdict(8, "prox-oracle-equivalence", ok, time.perf_counter() - t0, 30.0)


@pytest.mark.slow
def test_criterion_09_speedup_direction():
    t0 = time.perf_counter()
    ok = True
    for seed in range(3):
        # logistic regression at desk scale
        B, _, _ = gen_logreg_data(500, 2000, seed)
        t_a = time.perf_counter()
        prob = L1LogRegProblem(B, 100.0)  # includes the cheap norm
        rep_nl = solve_l1_logreg(prob, tol=1e-4, max_iters=50000)
        t_nl = time.perf_counter() - t_a
        t_a = time.perf_counter()
        # norm_2_2 happens inside the baseline call
        rep_lin = solve_linear_pdhg_logreg(prob, tol=1e-4, max_iters=20000, stop_on="both")
        t_lin = time.perf_counter() - t_a
        ok &= t_nl < t_lin
        # iteration-count direction at matched stopping criteria
        # (deterministic per seed); capped baselines only undercount.
        ok &= rep_nl.k < rep_lin.k

        t_a = time.perf_counter()
        norm_1_2(prob.operator)
        t_cheap = time.perf_counter() - t_a
        t_a = time.perf_counter()
        norm_2_2(DenseOperator(B))
        t_svd = time.perf_counter() - t_a
        ok &= t_svd >= 10.0 * max(t_cheap, 1e-9)

        # matrix games at desk scale
        A = gen_game_data(500, 500, seed)
        game = MatrixGameProblem(A, 0.1)
        t_a = time.perf_counter()
        solve_matrix_game(game, tol=1e-4, max_iters=50000, seed=seed)
        t_nlg = time.perf_counter() - t_a
        from nlpdhg.baselines import solve_linear_pdhg_game

        t_a = time.perf_counter()
        solve_linear_pdhg_game(game, tol=1e-4, max_iters=20000, seed=seed, stop_on="both")
        t_ling = time.perf_counter() - t_a
        ok &= t_nlg < t_ling

        t_a = time.perf_counter()
        norm_1_inf(game.operator)
        t_cheap_g = time.perf_counter() - t_a
        t_a = time.perf_counter()
        norm_2_2(game.operator)
        t_svd_g = time.perf_counter() - t_a
        ok &= t_svd_g >= 10.0 * max(t_cheap_g, 1e-9)
    _verdict(9, "speedup-direction", ok, time.perf_counter() - t0, 300.0)


def test_criterion_10_bench_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        kind="lasso",
        m=12,
        n=24,
        lam=0.25,
        seed=7,
        solvers=["nonlinear-pdhg", "fista"],
        tol=1e-5,
        max_iters=50000,
        reps=2,
        sparsity=4,
        noise=0.1,
        record_timing=False,
    )
    csv_a = rows_to_csv(run_experiment(spec))
    csv_b = rows_to_csv(run_experiment(spec))
    ok = csv_a == csv_b
    # With timing on, everything except the wall_ms column must still agree.
    spec.record_timing = True
    strip = lambda text: [
        ",".join(f for i, f in enumerate(line.split(",")) if i != 7)
        for line in text.splitlines()
    ]
    ok &= strip(rows_to_csv(run_experiment(spec))) == strip(rows_to_csv(run_experiment(spec)))
    _verdict(10, "bench-determinism", ok, time.perf_counter() - t0, 60.0)
