"""l1-constrained logistic regression: accelerated-dual steps, lift recovery,
residuals, and closed-form proxes against numerical minimization."""

import numpy as np
import pytest

from nlpdhg.data import gen_logreg_data
from nlpdhg.engine import IterateState, step
from nlpdhg.problems.logreg import (
    L1LogRegProblem,
    l1logreg_dual_residual,
    recover_v,
    solve_l1_logreg,
    support_from_dual,
)

from _oracles import binary_entropy_prox_oracle, entropy_prox_oracle

SIGMOID_MINUS_ONE = 0.2689414213699951


def toy_problem():
    """m = d = 1, single sample with u = 1, b = 1, radius 1.

    The lifted primal minimizes log(1 + exp(x2 - x1)) over the 2-simplex, so
    the solution concentrates on the first vertex and the dual optimum is
    sigmoid(-1).
    """
    return L1LogRegProblem(np.array([[-1.0]]), 1.0)


def small_problem(seed=0, m=6, d=5, lam=3.0):
    B, _, _ = gen_logreg_data(m, d, seed)
    return L1LogRegProblem(B, lam)


def test_all_zero_matrix_rejected():
    with pytest.raises(ValueError, match="B has operator norm 0"):
        L1LogRegProblem(np.zeros((3, 4)), 1.0)


class TestStep:
    def test_zero_dual_gradient_keeps_x(self):
        """A^T y = 0 makes the multiplicative update a no-op."""
        p = small_problem()
        x = np.full(p.n, 1.0 / p.n)
        out = p.primal_prox(p.operator.adjoint_apply(np.zeros(p.m)), x, tau=0.7)
        np.testing.assert_allclose(out, x, rtol=1e-14)

    def test_large_sigma_limit_hits_optimality_map(self):
        """sigma -> infinity drives y straight to 1/(m + m exp(-[A x]_i))."""
        p = small_problem(1)
        x0, y0 = p.default_init()
        sched = p.schedule()
        sched.sigma = 1e8
        st = step(p, IterateState.initial(x0, y0), sched)
        target = 1.0 / (p.m + p.m * np.exp(-p.operator.apply(x0)))
        np.testing.assert_allclose(st.y, target, rtol=1e-6)

    def test_toy_fixed_point(self):
        p = toy_problem()
        rep = solve_l1_logreg(p, tol=1e-9, max_iters=200000)
        assert abs(rep.y[0] - 1.0 / (1.0 + np.exp(-p.operator.apply(rep.x)[0]))) < 1e-6
        np.testing.assert_allclose(rep.y, [SIGMOID_MINUS_ONE], atol=1e-6)
        np.testing.assert_allclose(rep.x, [1.0, 0.0], atol=1e-4)


class TestRecoverV:
    def test_vertex(self):
        np.testing.assert_allclose(recover_v([1.0, 0.0, 0.0, 0.0], 2.0), [2.0, 0.0])

    def test_uniform_cancels(self):
        np.testing.assert_allclose(recover_v(np.full(4, 0.25), 1.0), [0.0, 0.0])

    def test_mixed(self):
        np.testing.assert_allclose(recover_v([0.6, 0.0, 0.4, 0.0], 1.0), [0.2, 0.0])

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError, match="even"):
            recover_v([0.5, 0.3, 0.2], 1.0)


class TestDualResidual:
    def test_zero_at_analytic_fixed_point(self):
        p = toy_problem()
        x_s = np.array([1.0, 0.0])
        y_s = np.array([SIGMOID_MINUS_ONE])
        assert l1logreg_dual_residual(p, x_s, y_s) < 1e-15

    def test_finite_at_default_init(self):
        p = small_problem(3)
        x0, y0 = p.default_init()
        assert np.isfinite(l1logreg_dual_residual(p, x0, y0))


class TestSupport:
    def test_exact_tie(self):
        p = small_problem(4)

        class FakeOp:
            def adjoint_apply(self, y):
                return -np.array([3.0, 3.0, 1.0])

        p.operator = FakeOp()
        np.testing.assert_array_equal(support_from_dual(p, np.zeros(p.m), 1e-6), [0, 1])

    def test_all_equal_gives_full_set(self):
        p = small_problem(5)

        class FakeOp:
            def adjoint_apply(self, y):
                return np.zeros(7)

        p.operator = FakeOp()
        assert len(support_from_dual(p, np.zeros(p.m), 1e-9)) == 7

    def test_zero_tol_singleton(self):
        p = small_problem(6)
        rng = np.random.default_rng(0)
        vec = rng.standard_normal(p.n)

        class FakeOp:
            def adjoint_apply(self, y):
                return -vec

        p.operator = FakeOp()
        idx = support_from_dual(p, np.zeros(p.m), 0.0)
        assert list(idx) == [int(np.argmax(vec))]

    @pytest.mark.parametrize("tol", [-1, float("nan"), float("inf")])
    def test_bad_tol_rejected(self, tol):
        """The same message as every other ``tol`` check."""
        p = L1LogRegProblem(np.ones((2, 2)), 1.0)
        with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got "):
            support_from_dual(p, np.zeros(p.m), tol)


class TestProxOracles:
    def test_primal_prox_is_the_minimizer(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = rng.integers(2, 7)
            x_bar = rng.random(n) + 0.1
            x_bar /= x_bar.sum()
            cost = rng.standard_normal(n)
            tau = 10.0 ** rng.uniform(-1, 0.5)
            p = L1LogRegProblem(np.ones((1, 1)), 1.0)
            got = p.primal_prox(cost, x_bar, tau)
            want = entropy_prox_oracle(x_bar, cost, tau, lam=0.0)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_dual_prox_is_the_maximizer(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            p = L1LogRegProblem(rng.standard_normal((m, 3)), 2.0)
            y_bar = rng.uniform(0.1, 0.9, m) / m
            x_tilde = rng.random(p.n)
            x_tilde /= x_tilde.sum()
            sigma = 10.0 ** rng.uniform(-1, 1)
            got = p.dual_prox(p.operator.apply(x_tilde), y_bar, sigma)
            want = binary_entropy_prox_oracle(y_bar, p.operator.apply(x_tilde), sigma, m)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestInvariants:
    def test_simplex_box_and_ball_preserved(self):
        """x stays on the simplex, y inside (0, 1/m)^m, and the recovered v
        inside the l1 ball at every step. Strict positivity of x is
        structural (the update is multiplicative) but heavily suppressed
        coordinates underflow double precision once the accumulated exponent
        passes ~-745, so it is asserted over the representable horizon."""
        p = small_problem(9, m=8, d=6, lam=2.0)
        sched = p.schedule()
        st = IterateState.initial(*p.default_init())
        for k in range(1, 201):
            st = step(p, st, sched)
            assert abs(st.x.sum() - 1.0) < 1e-12
            assert st.x.min() >= 0.0
            if k <= 60:
                assert st.x.min() > 0.0
            assert 0.0 < st.y.min() and st.y.max() < 1.0 / p.m
            assert np.abs(recover_v(st.x, p.lam)).sum() <= p.lam * (1 + 1e-12)

    def test_construction_guards(self):
        with pytest.raises(ValueError, match="lam"):
            L1LogRegProblem(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError, match="matrix"):
            L1LogRegProblem(np.ones(3), 1.0)

    @pytest.mark.parametrize("B", [np.zeros((0, 3)), np.zeros((2, 0)), np.ones(3)])
    def test_non_matrix_named_B(self, B):
        """The message names B, not the operator's base."""
        with pytest.raises(ValueError) as exc:
            L1LogRegProblem(B, 1.0)
        assert str(exc.value) == f"B must be a non-empty 2-d matrix, got shape {B.shape}"

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lam_rejected(self, lam):
        """The message names lam, not the operator's scale."""
        with pytest.raises(ValueError, match="^lam must be"):
            L1LogRegProblem(np.ones((2, 2)), lam)

    def test_complex_matrix_rejected(self):
        """A float cast would keep only the real part of B."""
        with pytest.raises(ValueError, match="^B must be real, got complex entries$"):
            L1LogRegProblem(np.array([[1.0, 2.0 + 1j]]), 1.0)
