"""Entropy-regularized matrix games: multiplicative updates, equilibrium
residuals, and prox-oracle agreement."""

import numpy as np
import pytest

from nlpdhg.data import gen_game_data
from nlpdhg.engine import IterateState, step
from nlpdhg.problems.games import MatrixGameProblem, game_optimality_residual, solve_matrix_game
from nlpdhg.schedules import LinearRateSchedule

from _oracles import entropy_prox_oracle


def step_params(problem):
    s = problem.schedule()
    return s.theta, s.tau, s.sigma


def game_step(problem, state, theta, tau, sigma):
    """The iteration solve_matrix_game runs: y-first linear rate."""
    return step(problem, state, LinearRateSchedule(theta, tau, sigma, order="y-first"))


class TestStep:
    def test_one_by_one_game_is_trivial(self):
        """On the one-point simplex both updates normalize to the scalar 1."""
        p = MatrixGameProblem(np.array([[3.7]]), 0.5)
        theta, tau, sigma = step_params(p)
        st = IterateState.initial(np.array([1.0]), np.array([1.0]))
        for _ in range(5):
            st = game_step(p, st, theta, tau, sigma)
            np.testing.assert_allclose(st.x, [1.0])
            np.testing.assert_allclose(st.y, [1.0])

    def test_zero_payoff_power_contraction(self):
        """With A = 0 the x update reduces to renormalized x^(1/(1+lam tau))."""
        p = MatrixGameProblem(np.zeros((3, 3)), 0.5)
        theta, tau, sigma = step_params(p)
        rng = np.random.default_rng(0)
        x0 = rng.random(3) + 0.1
        x0 /= x0.sum()
        y0 = rng.random(3) + 0.1
        y0 /= y0.sum()
        st = game_step(p, IterateState.initial(x0, y0), theta, tau, sigma)
        powered = x0 ** (1.0 / (1.0 + p.lam * tau))
        np.testing.assert_allclose(st.x, powered / powered.sum(), rtol=1e-12)

    def test_symmetric_two_by_two(self):
        """A = [[0,1],[1,0]]: symmetry forces the uniform equilibrium."""
        p = MatrixGameProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
        rep = solve_matrix_game(p, tol=1e-10, max_iters=50000)
        np.testing.assert_allclose(rep.x, [0.5, 0.5], atol=1e-7)
        np.testing.assert_allclose(rep.y, [0.5, 0.5], atol=1e-7)
        r1, r2 = game_optimality_residual(p, rep.x, rep.y)
        assert r1 < 1e-6 and r2 < 1e-6

    def test_simplex_preservation(self):
        A = gen_game_data(6, 4, 2)
        p = MatrixGameProblem(A, 0.2)
        theta, tau, sigma = step_params(p)
        x0, y0 = p.default_init(seed=3)
        st = IterateState.initial(x0, y0)
        for _ in range(500):
            st = game_step(p, st, theta, tau, sigma)
            assert abs(st.x.sum() - 1.0) < 1e-12
            assert abs(st.y.sum() - 1.0) < 1e-12
            assert st.x.min() > 0.0 and st.y.min() > 0.0


class TestOptimalityResidual:
    def test_uniform_on_zero_game(self):
        p = MatrixGameProblem(np.zeros((3, 4)), 1.0)
        r1, r2 = game_optimality_residual(p, np.full(4, 0.25), np.full(3, 1 / 3))
        assert r1 == 0.0 and r2 == 0.0

    def test_uniform_on_symmetric_game(self):
        p = MatrixGameProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.1)
        r1, r2 = game_optimality_residual(p, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert r1 < 1e-12 and r2 < 1e-12

    def test_positive_off_equilibrium(self):
        p = MatrixGameProblem(gen_game_data(3, 3, 4), 0.5)
        r1, r2 = game_optimality_residual(p, np.array([0.7, 0.2, 0.1]), np.full(3, 1 / 3))
        assert r1 > 0.0 and r2 > 0.0

    def test_boundary_rejected(self):
        p = MatrixGameProblem(gen_game_data(2, 2, 5), 0.5)
        with pytest.raises(ValueError):
            game_optimality_residual(p, np.array([1.0, 0.0]), np.array([0.5, 0.5]))


class TestProxOracles:
    def test_dual_prox_positive_linear_term(self):
        """The y player maximizes <y, A x>, so its update must up-weight
        large payoff entries; checked against direct minimization."""
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            p = MatrixGameProblem(rng.uniform(-1, 1, (m, 3)), 10.0 ** rng.uniform(-1, 0.5))
            y_bar = rng.random(m) + 0.1
            y_bar /= y_bar.sum()
            x = rng.random(3)
            x /= x.sum()
            sigma = 10.0 ** rng.uniform(-1, 0.5)
            got = p.dual_prox(p.operator.apply(x), y_bar, sigma)
            # argmax <y,z> - lam H(y) - KL/sigma == argmin lam H(y) + <y,-z> + KL/sigma
            want = entropy_prox_oracle(y_bar, -p.operator.apply(x), sigma, lam=p.lam)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_primal_prox(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            p = MatrixGameProblem(rng.uniform(-1, 1, (3, n)), 10.0 ** rng.uniform(-1, 0.5))
            x_bar = rng.random(n) + 0.1
            x_bar /= x_bar.sum()
            y = rng.random(3)
            y /= y.sum()
            tau = 10.0 ** rng.uniform(-1, 0.5)
            got = p.primal_prox(p.operator.adjoint_apply(y), x_bar, tau)
            want = entropy_prox_oracle(x_bar, p.operator.adjoint_apply(y), tau, lam=p.lam)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_fixed_point_is_softmax_pair(self):
        """Iterating to convergence lands on y = softmax(Ax/lam) and
        x = softmax(-A^T y/lam)."""
        p = MatrixGameProblem(gen_game_data(5, 6, 8), 0.4)
        rep = solve_matrix_game(p, tol=1e-12, max_iters=50000)
        ax = p.operator.apply(rep.x) / p.lam
        soft_y = np.exp(ax - ax.max())
        soft_y /= soft_y.sum()
        np.testing.assert_allclose(rep.y, soft_y, atol=1e-9)
        aty = -p.operator.adjoint_apply(rep.y) / p.lam
        soft_x = np.exp(aty - aty.max())
        soft_x /= soft_x.sum()
        np.testing.assert_allclose(rep.x, soft_x, atol=1e-9)


def test_construction_guards():
    with pytest.raises(ValueError, match="lam"):
        MatrixGameProblem(np.ones((2, 2)), 0.0)


@pytest.mark.parametrize("lam", [np.inf, np.nan])
def test_non_finite_lam_rejected(lam):
    """An infinite lam would fail later, in the schedule, with theta = 0."""
    with pytest.raises(ValueError, match="^lam must be"):
        MatrixGameProblem(np.ones((2, 2)), lam)
