"""Step-size schedules: construction guards, recurrences, invariants."""

import math

import numpy as np
import pytest

from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.problems import (
    L1LogRegProblem,
    LassoProblem,
    MatrixGameProblem,
    QuadraticSaddleProblem,
)
from nlpdhg.schedules import (
    AccDualSchedule,
    AccPrimalSchedule,
    ConstantSchedule,
    LinearRateSchedule,
    linear_rate_params,
    schedule_for,
)


class TestConstant:
    def test_strict_inequality_enforced(self):
        with pytest.raises(ValueError, match="strictly below 1"):
            ConstantSchedule(tau=1.0, sigma=1.0, op_norm=1.0)
        ConstantSchedule(tau=0.5, sigma=0.5, op_norm=1.0)  # fine

    def test_params_fixed(self):
        s = ConstantSchedule(0.4, 0.3, 1.0)
        for _ in range(5):
            s.advance()
        assert (s.tau, s.sigma) == (0.4, 0.3)

    def test_theta_is_the_overrelaxation_weight(self):
        """theta = 1 is the weight of 2x_{k+1} - x_k, so the ergodic weights
        grow by 1/theta = 1: a plain average."""
        assert ConstantSchedule(0.4, 0.3, 1.0).theta == 1.0


class TestAccPrimal:
    def test_first_advance_values(self):
        # gamma=1, ||A||=1, sigma0=0.5 pins tau0=2; frozen recurrence values.
        s = AccPrimalSchedule(1.0, 1.0, sigma0=0.5)
        assert s.tau == 2.0
        s.advance()
        np.testing.assert_allclose(s.theta, 0.5773502691896257, rtol=1e-15)
        np.testing.assert_allclose(s.tau, 1.1547005383792515, rtol=1e-15)
        np.testing.assert_allclose(s.sigma, 0.8660254037844386, rtol=1e-15)
        # T_1 = sigma_0/sigma_0 = 1 equals the closed form
        # ||A||^2 (sigma_1^2 - sigma_0^2)/(gamma sigma_0) = (0.75-0.25)/0.5.
        np.testing.assert_allclose((s.sigma**2 - 0.5**2) / (1.0 * 0.5), 1.0, rtol=1e-14)

    def test_gamma_required(self):
        with pytest.raises(ValueError, match="gamma_g"):
            AccPrimalSchedule(0.0, 1.0)

    def test_default_sigma0_recommendation(self):
        """sigma0 = gamma/(2||A||^2) maximizes the K^2 coefficient of the
        weight-sum lower bound; scaled choices do worse."""
        gamma, L = 0.7, 2.3
        a = gamma / (2 * L**2)

        def coeff(sigma0):
            return a * sigma0 / (2 * (a + sigma0) ** 2)

        best = coeff(AccPrimalSchedule(gamma, L).sigma0)
        for factor in (0.5, 2.0, 10.0):
            assert best >= coeff(a * factor)

    def test_product_invariant_long_run(self):
        s = AccPrimalSchedule(0.3, 2.0, sigma0=0.05)
        L2 = 4.0
        worst = 0.0
        for _ in range(10000):
            s.advance()
            worst = max(worst, abs(s.tau * s.sigma * L2 - 1.0))
        assert worst < 1e-10

    def test_weight_sum_closed_form(self):
        """Running sum of sigma_{k-1}/sigma0 telescopes to
        ||A||^2 (sigma_K^2 - sigma_0^2) / (gamma sigma_0)."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            gamma = 10.0 ** rng.uniform(-1, 1)
            L = 10.0 ** rng.uniform(-1, 1)
            sigma0 = 10.0 ** rng.uniform(-2, 2)
            s = AccPrimalSchedule(gamma, L, sigma0=sigma0)
            a = gamma / (2 * L**2)
            T = 0.0
            for k in (1, 10, 100, 1000):
                while s.k < k:
                    T += s.sigma / sigma0
                    s.advance()
                closed = L**2 * (s.sigma**2 - sigma0**2) / (gamma * sigma0)
                np.testing.assert_allclose(T, closed, rtol=1e-9)
                lo = sigma0 * k / (a + sigma0) + a * sigma0 * k**2 / (2 * (a + sigma0) ** 2)
                hi = k + a * k**2 / (2 * sigma0)
                assert lo <= T * (1 + 1e-12) + 1e-12
                assert T <= hi * (1 + 1e-12) + 1e-12


class TestAccDual:
    def test_mirror_recurrence(self):
        # gamma_h* = 4 (m=1), sigma0 = 4 from tau0 = 0.25, ||A|| = 1.
        s = AccDualSchedule(4.0, 1.0, tau0=0.25)
        assert s.sigma == 4.0
        s.advance()
        np.testing.assert_allclose(s.theta, 0.24253562503633297, rtol=1e-15)  # 1/sqrt(17)

    def test_zero_theta0_default(self):
        assert AccDualSchedule(1.0, 1.0).theta == 0.0

    def test_gamma_required(self):
        with pytest.raises(ValueError, match="gamma_h_star"):
            AccDualSchedule(0.0, 1.0)

    def test_product_invariant_long_run(self):
        s = AccDualSchedule(5.0, 1.3, tau0=0.7)
        L2 = 1.3**2
        worst = 0.0
        for _ in range(10000):
            s.advance()
            worst = max(worst, abs(s.tau * s.sigma * L2 - 1.0))
        assert worst < 1e-10


@pytest.mark.parametrize(
    "build",
    [
        lambda: AccPrimalSchedule(1e10, 1e-140, sigma0=1.0),
        lambda: AccDualSchedule(1e10, 1e-140, tau0=1.0),
    ],
    ids=["primal", "dual"],
)
def test_accelerated_advance_at_a_huge_finite_gamma_step_product(build):
    """gamma times a first step of 1e280 is finite, so theta stays > 0."""
    s = build()
    s.advance()
    assert s.theta > 0.0 and math.isfinite(s.tau) and math.isfinite(s.sigma)


class TestLinearRate:
    def test_golden_ratio_case(self):
        theta, tau, sigma = linear_rate_params(1.0, 1.0, 1.0)
        np.testing.assert_allclose(theta, 0.38196601125010515, rtol=1e-14)
        np.testing.assert_allclose(tau, 1.618033988749895, rtol=1e-14)
        np.testing.assert_allclose(sigma, tau, rtol=1e-14)
        np.testing.assert_allclose(tau * sigma * theta, 1.0, rtol=1e-12)

    def test_identity_over_scales(self):
        for g, h, L in [(1, 1, 1), (100, 100, 1), (1e-3, 1, 1), (1, 1, 100), (30, 40, 0.5)]:
            theta, tau, sigma = linear_rate_params(g, h, L)
            assert 0 < theta < 1
            np.testing.assert_allclose(tau * sigma * theta * L**2, 1.0, rtol=1e-12)

    def test_theta_monotone_in_op_norm(self):
        """Larger ||A|| gives slower contraction (theta -> 1)."""
        thetas = [linear_rate_params(1.0, 1.0, L)[0] for L in (1.0, 3.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        assert thetas[-1] < 1.0

    def test_theta_small_ratio_expansion(self):
        """gamma_g gamma_h >> ||A||^2: theta ~ ||A||^2/(gamma_g gamma_h)."""
        theta, _, _ = linear_rate_params(100.0, 100.0, 1.0)  # c = 1e4
        series = 1e-4 - 2e-8  # 1/c - 2/c^2
        np.testing.assert_allclose(theta, series, rtol=1e-6)

    def test_theta_just_below_one_is_kept(self):
        """The smallest ratios whose theta stays below 1 keep their bits."""
        assert linear_rate_params(1e-15, 1e-15, 1.0)[0] == 0.9999999999999989

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError, match="^gamma_g must be a finite number > 0"):
            linear_rate_params(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^gamma_h_star must be a finite number > 0"):
            linear_rate_params(1.0, -1.0, 1.0)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            LinearRateSchedule(0.5, 1.0, 1.0, order="sideways")


class TestScheduleFor:
    def _params(self, s):
        return s.theta, s.tau, s.sigma

    def test_both_constants_give_linear_rate_y_first(self):
        s = schedule_for(0.7, 1.3, 2.1)
        assert s.regime == "linear-rate-y-first" and s.k == 0
        assert self._params(s) == linear_rate_params(0.7, 1.3, 2.1)

    def test_dual_constant_alone_gives_acc_dual(self):
        gamma, L = 3.0, 1.7
        s = schedule_for(0.0, gamma, L)
        assert s.regime == "acc-dual"
        assert s.tau0 == gamma / (2.0 * L**2)
        assert self._params(s) == self._params(AccDualSchedule(gamma, L))

    @pytest.mark.parametrize("gamma_g, gamma_h_star", [(0.5, 0.5), (0.0, 2.0)])
    def test_zero_norm_is_unit_norm(self, gamma_g, gamma_h_star):
        zero = schedule_for(gamma_g, gamma_h_star, 0.0)
        unit = schedule_for(gamma_g, gamma_h_star, 1.0)
        assert zero.regime == unit.regime
        assert self._params(zero) == self._params(unit)

    @pytest.mark.parametrize("gamma_g", [0.0, 1.0])
    def test_no_dual_constant_rejected(self, gamma_g):
        with pytest.raises(ValueError, match=r"gamma_g=.*gamma_h_star=0\.0"):
            schedule_for(gamma_g, 0.0, 1.0)

    def test_problem_declaring_constants_inherits_schedule(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]])
        p = QuadraticSaddleProblem(A, 0.5, 0.3)
        s = p.schedule()
        assert s.regime == "linear-rate-y-first"
        assert self._params(s) == linear_rate_params(0.5, 0.3, p.op_norm)


WORKED_PROBLEMS = {
    "logreg": lambda: L1LogRegProblem(gen_logreg_data(6, 4, 0)[0], 2.0),
    "game": lambda: MatrixGameProblem(gen_game_data(4, 3, 0), 0.5),
    "lasso": lambda: LassoProblem(*gen_lasso_data(6, 8, 2, 0.1, 0)[:2], 0.1),
}


class TestProblemSchedules:
    """Each worked problem builds its schedule afresh on every call, so a
    restart can begin from ``problem.schedule()``."""

    @pytest.mark.parametrize("kind", list(WORKED_PROBLEMS))
    def test_schedule_is_fresh_after_an_earlier_one_advanced(self, kind):
        p = WORKED_PROBLEMS[kind]()
        first = p.schedule()
        initial = (first.theta, first.tau, first.sigma)
        for _ in range(3):
            first.advance()
        again = p.schedule()
        assert again is not first and first.k == 3
        assert again.k == 0
        assert (again.theta, again.tau, again.sigma) == initial
