"""Lasso: soft thresholding, the accelerated dual iteration, optimality
residuals, and agreement with an independent forward-backward oracle."""

import numpy as np
import pytest

from nlpdhg.baselines import prox_gradient_lasso
from nlpdhg.data import gen_lasso_data
from nlpdhg.problems.lasso import (
    LassoProblem,
    lasso_optimality_residual,
    shrink1,
    solve_lasso,
)

from _oracles import euclidean_prox_oracle, shrink1_scalar_oracle


class TestShrink1:
    def test_piecewise_values(self):
        np.testing.assert_allclose(shrink1([2.0, 0.5, -3.0], 1.0), [1.0, 0.0, -2.0])

    def test_large_threshold_zeroes_everything(self):
        v = np.array([0.3, -0.8, 0.1])
        out = shrink1(v, 2.0)
        assert np.all(out == 0.0)

    def test_exact_zeros_bitwise(self):
        out = shrink1(np.array([0.5, -0.25, 1.5]), 0.5)
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 1.0

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError, match="beta"):
            shrink1([1.0], 0.0)

    def test_is_the_l1_prox(self):
        """Componentwise golden-section minimization of the defining scalar
        objective agrees with the closed form for 100 random scalars."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = float(rng.uniform(-4, 4))
            beta = float(rng.uniform(0.05, 3.0))
            want = shrink1_scalar_oracle(v, beta)
            got = shrink1(np.array([v]), beta)[0]
            assert abs(got - want) < 1e-8


def scalar_problem():
    """A = [1], b = (1), lam = 1: threshold dominates, so x = 0 and the
    optimality map gives y = (A x - b)/m = -1."""
    return LassoProblem(np.array([[1.0]]), np.array([1.0]), 1.0)


class TestSolve:
    def test_scalar_instance(self):
        p = scalar_problem()
        rep = solve_lasso(p, tol=1e-10, max_iters=100000)
        assert rep.x[0] == 0.0  # exact zero from the soft threshold
        np.testing.assert_allclose(rep.y, [-1.0], atol=1e-8)
        assert lasso_optimality_residual(p, rep.x, rep.y) < 1e-7

    def test_lam_validation(self):
        with pytest.raises(ValueError, match="lam"):
            LassoProblem(np.eye(2), np.zeros(2), 0.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lam_rejected(self, lam):
        """An infinite lam would make the solvers stop at x = 0 with a NaN
        objective."""
        with pytest.raises(ValueError, match="^lam must be"):
            LassoProblem(np.eye(2), np.ones(2), lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_b_rejected(self, bad):
        """A NaN b would make FISTA run to its cap and return a NaN x."""
        A, b, _ = gen_lasso_data(12, 20, 3, 0.1, 0)
        b[3] = bad
        with pytest.raises(ValueError, match="^b contains NaN or Inf entries$"):
            LassoProblem(A, b, 0.1)

    def test_complex_b_rejected(self):
        """A float cast would keep only the real part of b."""
        with pytest.raises(ValueError, match="^b must be real, got complex entries$"):
            LassoProblem(np.eye(2), np.array([1.0, 2.0 + 1j]), 0.1)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="A has operator norm 0"):
            LassoProblem(np.zeros((3, 4)), np.ones(3), 0.1)

    def test_small_instance_matches_fb_oracle(self):
        """5 x 8 random instance: terminal objective within 1e-6 of a
        forward-backward solve run to 1e-10."""
        A, b, _ = gen_lasso_data(5, 8, 2, 0.05, 11)
        lam = 0.4 * np.max(np.abs(A.T @ b)) / 5
        p = LassoProblem(A, b, lam)
        rep = solve_lasso(p, tol=1e-9, max_iters=300000)
        x_fb = prox_gradient_lasso(A, b, lam, tol=1e-10)
        assert abs(p.objective(rep.x) - p.objective(x_fb)) < 1e-6

    def test_non_finite_iterate_raises(self, monkeypatch):
        """A primal prox that returns NaN stops the solve there instead of
        returning it."""
        p = LassoProblem(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([1.0, 0.3]), 0.1)
        monkeypatch.setattr(p, "primal_prox", lambda aty, x_bar, tau: np.full_like(x_bar, np.nan))
        with pytest.raises(RuntimeError, match="non-finite"):
            solve_lasso(p, max_iters=5)

    def test_zero_pattern_matches_dual_criterion(self):
        """Entries whose dual value sits strictly below lam are bitwise
        zero at the terminal iterate."""
        A, b, _ = gen_lasso_data(20, 40, 4, 0.1, 3)
        lam = 0.3 * np.max(np.abs(A.T @ b)) / 20
        p = LassoProblem(A, b, lam)
        rep = solve_lasso(p, residual_fn=lambda x, y: lasso_optimality_residual(p, x, y),
                          tol=1e-7, max_iters=300000)
        aty = np.abs(p.operator.adjoint_apply(rep.y))
        surely_zero = aty < lam - 1e-3 * lam
        assert np.all(rep.x[surely_zero] == 0.0)
        # and the support carries dual values at the threshold
        assert np.all(aty[rep.x != 0.0] > lam - 1e-3 * lam)


class TestOptimalityResidual:
    def test_zero_at_scalar_solution(self):
        p = scalar_problem()
        assert lasso_optimality_residual(p, np.array([0.0]), np.array([-1.0])) == 0.0

    def test_zero_for_trivial_problem(self):
        p = LassoProblem(np.array([[1.0]]), np.array([0.0]), 1.0)
        assert lasso_optimality_residual(p, np.array([0.0]), np.array([0.0])) == 0.0

    def test_positive_off_optimum(self):
        p = scalar_problem()
        assert lasso_optimality_residual(p, np.array([0.5]), np.array([0.2])) > 0.0


class TestProxOracles:
    def test_primal_prox(self):
        """shrink1-based prox against BFGS on a smoothed check: compare to
        componentwise golden-section minimization instead (the objective is
        nonsmooth)."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            p = LassoProblem(rng.standard_normal((3, n)), rng.standard_normal(3), 0.7)
            x_bar = rng.standard_normal(n)
            y_t = rng.standard_normal(3)
            tau = 10.0 ** rng.uniform(-1, 0.5)
            got = p.primal_prox(p.operator.adjoint_apply(y_t), x_bar, tau)
            base = x_bar - tau * p.operator.adjoint_apply(y_t)
            want = np.array([shrink1_scalar_oracle(v, p.lam * tau) for v in base])
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_dual_prox(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 7))
            p = LassoProblem(rng.standard_normal((m, 4)), rng.standard_normal(m), 0.7)
            y_bar = rng.standard_normal(m)
            x_t = rng.standard_normal(4)
            sigma = 10.0 ** rng.uniform(-1, 1)
            got = p.dual_prox(p.operator.apply(x_t), y_bar, sigma)
            ax_b = p.operator.apply(x_t) - p.b

            def objective(y, ax_b=ax_b, p=p, y_bar=y_bar, sigma=sigma):
                # negation of the dual ascent objective, with its gradient
                val = (
                    -y @ ax_b
                    + 0.5 * p.m * y @ y
                    + 0.5 * p.m / sigma * np.sum((y - y_bar) ** 2)
                )
                return val, -ax_b + p.m * y + p.m / sigma * (y - y_bar)

            want = euclidean_prox_oracle(objective, y_bar)
            np.testing.assert_allclose(got, want, atol=1e-8)
