"""Engine semantics on quadratic games with known saddle points."""

import json

import numpy as np
import pytest

import nlpdhg
from nlpdhg import engine
from nlpdhg.engine import (
    ErgodicAccumulator,
    IterateState,
    StoppingRule,
    _rel_change,
    delta_diag,
    run,
    step,
)
from nlpdhg.baselines import solve_game_pu
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.problems import (
    L1LogRegProblem,
    LassoProblem,
    MatrixGameProblem,
    solve_l1_logreg,
    solve_lasso,
    solve_matrix_game,
)
from nlpdhg.problems.quadratic import QuadraticSaddleProblem
from nlpdhg.schedules import (
    AccDualSchedule,
    AccPrimalSchedule,
    ConstantSchedule,
    LinearRateSchedule,
    linear_rate_params,
)


def one_d_game():
    # L(x, y) = x^2/2 + x y - y^2/2; stationarity gives x + y = 0 and
    # x - y = 0, so the unique saddle point is the origin.
    return QuadraticSaddleProblem(np.array([[1.0]]), gamma_g=1.0, gamma_h_star=1.0)


def random_game(seed, n=4, m=3, gamma_lo=0.1, gamma_hi=0.5):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return QuadraticSaddleProblem(
        A,
        gamma_g=rng.uniform(gamma_lo, gamma_hi),
        gamma_h_star=rng.uniform(gamma_lo, gamma_hi),
        c=rng.standard_normal(n),
        d=rng.standard_normal(m),
    )


class TestStepConstant:
    def test_hand_computed_first_step(self):
        """tau = sigma = 0.5 from (1, 1): x1 = 1/3, then y1 = 5/9."""
        prob = one_d_game()
        st = IterateState.initial(np.array([1.0]), np.array([1.0]))
        st = step(prob, st, ConstantSchedule(0.5, 0.5, prob.op_norm))
        np.testing.assert_allclose(st.x, [1.0 / 3.0], rtol=1e-15)
        np.testing.assert_allclose(st.y, [5.0 / 9.0], rtol=1e-15)

    def test_saddle_is_fixed_point(self):
        prob = random_game(0)
        xs, ys = prob.saddle_point()
        st = IterateState.initial(xs, ys)
        st = step(prob, st, ConstantSchedule(0.3 / prob.op_norm, 0.3 / prob.op_norm, prob.op_norm))
        np.testing.assert_allclose(st.x, xs, atol=1e-10)
        np.testing.assert_allclose(st.y, ys, atol=1e-10)

    def test_product_at_one_rejected(self):
        with pytest.raises(ValueError, match="strictly below"):
            ConstantSchedule(1.0, 1.0, op_norm=1.0)


class TestStepAccelerated:
    def test_acc_primal_saddle_fixed_point(self):
        prob = random_game(1)
        xs, ys = prob.saddle_point()
        sched = AccPrimalSchedule(prob.gamma_g, prob.op_norm)
        st = IterateState.initial(xs, ys)
        for _ in range(3):
            st = step(prob, st, sched)
        np.testing.assert_allclose(st.x, xs, atol=1e-10)
        np.testing.assert_allclose(st.y, ys, atol=1e-10)

    def test_acc_dual_zero_theta_first_step(self):
        """theta starts at 0, so the first dual prox sees A x0 unextrapolated."""
        prob = random_game(2)
        x0 = np.zeros(prob.operator.cols)
        y0 = np.zeros(prob.operator.rows)
        sched = AccDualSchedule(prob.gamma_h_star, prob.op_norm)
        st = step(prob, IterateState.initial(x0, y0), sched)
        expect = prob.dual_prox(prob.operator.apply(x0), y0, sched.sigma0)
        np.testing.assert_allclose(st.y, expect, rtol=1e-14)

    def test_acc_dual_converges_to_saddle(self):
        prob = random_game(3)
        xs, ys = prob.saddle_point()
        sched = AccDualSchedule(prob.gamma_h_star, prob.op_norm)
        st = IterateState.initial(np.zeros_like(xs), np.zeros_like(ys))
        for _ in range(4000):
            st = step(prob, st, sched)
        np.testing.assert_allclose(st.y, ys, atol=1e-8)


class TestLinearRate:
    def test_saddle_fixed_point_both_orders(self):
        prob = random_game(4)
        xs, ys = prob.saddle_point()
        theta, tau, sigma = linear_rate_params(prob.gamma_g, prob.gamma_h_star, prob.op_norm)
        for order in ("x-first", "y-first"):
            st = IterateState.initial(xs, ys)
            st = step(prob, st, LinearRateSchedule(theta, tau, sigma, order=order))
            np.testing.assert_allclose(st.x, xs, atol=1e-10)
            np.testing.assert_allclose(st.y, ys, atol=1e-10)

    def test_orders_share_the_limit(self):
        """Different trajectories, same saddle point."""
        prob = one_d_game()
        theta, tau, sigma = linear_rate_params(1.0, 1.0, 1.0)
        finals = {}
        for order in ("x-first", "y-first"):
            sched = LinearRateSchedule(theta, tau, sigma, order=order)
            st = IterateState.initial(np.array([1.0]), np.array([1.0]))
            seen = []
            for _ in range(80):
                st = step(prob, st, sched)
                seen.append(st.x[0])
            finals[order] = (st.x[0], st.y[0])
        assert abs(finals["x-first"][0] - finals["y-first"][0]) < 1e-8
        assert abs(finals["x-first"][1] - finals["y-first"][1]) < 1e-8

    def test_contraction_bound_one_d(self):
        """Delta_K at the saddle contracts at least geometrically with
        factor theta, every K up to 200."""
        prob = one_d_game()
        xs, ys = prob.saddle_point()
        theta, tau, sigma = linear_rate_params(1.0, 1.0, 1.0)
        sched = LinearRateSchedule(theta, tau, sigma, order="x-first")
        st = IterateState.initial(np.array([1.0]), np.array([1.0]))
        d0 = delta_diag(prob, st, sched, xs, ys)
        for K in range(1, 201):
            st = step(prob, st, sched)
            dK = delta_diag(prob, st, sched, xs, ys)
            # additive floor covers double-precision saturation of tiny deltas
            assert dK <= theta**K * d0 * (1 + 1e-9) + 1e-28
            lower = prob.geom_y.divergence(ys, st.y) / sigma
            assert lower <= dK * (1 + 1e-9) + 1e-28


class TestDelta:
    def test_zero_at_current_iterate(self):
        prob = random_game(5)
        sched = ConstantSchedule(0.2, 0.2, prob.op_norm)
        st = IterateState.initial(np.ones(prob.operator.cols), np.ones(prob.operator.rows))
        assert delta_diag(prob, st, sched, st.x, st.y) == 0.0

    def test_constant_regime_lower_bound(self):
        """Delta_k >= (1 - sqrt(tau sigma)||A||)(D_x/tau + D_y/sigma)."""
        prob = random_game(6)
        tau = sigma = 0.5 / prob.op_norm
        sched = ConstantSchedule(tau, sigma, prob.op_norm)
        rng = np.random.default_rng(7)
        st = IterateState.initial(
            rng.standard_normal(prob.operator.cols), rng.standard_normal(prob.operator.rows)
        )
        shrink = 1.0 - np.sqrt(tau * sigma) * prob.op_norm
        for _ in range(50):
            xr = rng.standard_normal(prob.operator.cols)
            yr = rng.standard_normal(prob.operator.rows)
            d = delta_diag(prob, st, sched, xr, yr)
            base = prob.geom_x.divergence(xr, st.x) / tau + prob.geom_y.divergence(yr, st.y) / sigma
            assert d >= shrink * base - 1e-10

    def test_monotone_at_saddle_constant_regime(self):
        prob = random_game(8)
        xs, ys = prob.saddle_point()
        tau = sigma = 0.7 / prob.op_norm
        sched = ConstantSchedule(tau, sigma, prob.op_norm)
        st = IterateState.initial(np.zeros_like(xs) + 1.0, np.zeros_like(ys) - 1.0)
        prev = delta_diag(prob, st, sched, xs, ys)
        assert prev >= 0.0
        for _ in range(100):
            st = step(prob, st, sched)
            cur = delta_diag(prob, st, sched, xs, ys)
            assert cur <= prev * (1 + 1e-12) + 1e-14
            assert cur >= -1e-14
            prev = cur


class _CountingOperator:
    """Wraps an operator and counts its products."""

    def __init__(self, op):
        self.op = op
        self.applies = self.adjoints = 0

    def apply(self, x):
        self.applies += 1
        return self.op.apply(x)

    def adjoint_apply(self, y):
        self.adjoints += 1
        return self.op.adjoint_apply(y)


# A schedule of each update order, for a problem p.
SCHEDULE_OF_ORDER = {
    "overrelaxed": lambda p: ConstantSchedule(0.5 / p.op_norm, 0.5 / p.op_norm, p.op_norm),
    "x-first": lambda p: AccPrimalSchedule(p.gamma_g, p.op_norm),
    "y-first": lambda p: AccDualSchedule(p.gamma_h_star, p.op_norm),
}


@pytest.mark.parametrize("order", list(SCHEDULE_OF_ORDER))
def test_run_takes_one_product_each_way_per_iteration(order):
    """The engine makes the only operator products of the loop: K
    iterations take K products with A and K with A^T, in every order, and
    give the bits of a run on the bare operator."""
    K = 9
    x0, y0 = np.zeros(4), np.zeros(3)
    prob = random_game(21)
    make_schedule = SCHEDULE_OF_ORDER[order]
    sched = make_schedule(prob)
    assert sched.order == order
    plain = run(prob, make_schedule(prob), x0, y0, StoppingRule(max_iters=K))
    counter = _CountingOperator(prob.operator)
    prob.operator = counter
    rep = run(prob, sched, x0, y0, StoppingRule(max_iters=K))
    assert rep.k == K and (counter.applies, counter.adjoints) == (K, K)
    assert rep.x.tobytes() == plain.x.tobytes() and rep.y.tobytes() == plain.y.tobytes()


class TestRun:
    def test_zero_iterations_returns_initial(self):
        prob = one_d_game()
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        rep = run(prob, sched, np.array([2.0]), np.array([3.0]), StoppingRule(max_iters=0))
        assert rep.k == 0 and not rep.converged
        np.testing.assert_allclose(rep.x, [2.0])
        np.testing.assert_allclose(rep.y, [3.0])

    @pytest.mark.parametrize("which", ["x0", "y0"])
    def test_complex_start_rejected(self, which):
        """A float cast would keep only the real part of the start point."""
        prob = one_d_game()
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        start = {"x0": np.array([1.0]), "y0": np.array([1.0])}
        start[which] = np.array([1.0 + 2j])
        message = f"^{which} must be real, got complex entries$"
        with pytest.raises(ValueError, match=message):
            run(prob, sched, start["x0"], start["y0"], StoppingRule(max_iters=5))
        with pytest.raises(ValueError, match=message):
            IterateState.initial(start["x0"], start["y0"])
        with pytest.raises(ValueError, match=message):
            nlpdhg.solve(LassoProblem([[1.0]], [1.0], 0.1), **start)

    def test_converges_on_one_d_game(self):
        prob = one_d_game()
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        stop = StoppingRule(max_iters=20000, tol=1e-4)
        rep = run(prob, sched, np.array([1.0]), np.array([1.0]), stop)
        assert rep.converged
        assert abs(rep.x[0]) < 1e-2 and abs(rep.y[0]) < 1e-2

    def test_nan_guard(self):
        prob = one_d_game()

        class BadSchedule(ConstantSchedule):
            pass

        sched = BadSchedule(0.5, 0.5, prob.op_norm)
        sched.tau = np.inf  # force a non-finite prox output
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="k=1"):
            run(prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=5))

    def test_huge_finite_dual_iterate_passes_guard(self):
        """||y|| overflows to inf at y = 1e200, yet y is finite: the guard
        must check the entries before raising."""
        prob = one_d_game()
        prob.dual_prox = lambda ax, y_bar, sigma: np.array([1e200])
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run(prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=2))
        assert rep.k == 2 and rep.y[0] == 1e200

    def test_huge_finite_primal_iterate_passes_guard(self):
        """x . x overflows to inf at x = 1e200, yet x is finite: the guard
        must check the entries before raising."""
        prob = one_d_game()
        prob.primal_prox = lambda aty, x_bar, tau: np.array([1e200])
        prob.dual_prox = lambda ax, y_bar, sigma: np.array([1.0])
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = run(prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=2))
        assert rep.k == 2 and rep.x[0] == 1e200

    def test_nan_primal_iterate_raises(self):
        # A 1x2 payoff, so that the engine can multiply the x of shape (2,).
        prob = QuadraticSaddleProblem(np.array([[1.0, 1.0]]), gamma_g=1.0, gamma_h_star=1.0)
        prob.primal_prox = lambda aty, x_bar, tau: np.array([0.0, np.nan])
        prob.dual_prox = lambda ax, y_bar, sigma: np.array([1.0])
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        with pytest.raises(RuntimeError, match="non-finite iterate at k=1"):
            run(prob, sched, np.array([1.0, 1.0]), np.array([1.0]), StoppingRule(max_iters=2))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"c": [1.0]}, r"c must have shape \(3,\), got \(1,\)"),
            ({"c": np.zeros((3, 1))}, r"c must have shape \(3,\)"),
            ({"d": [2.0]}, r"d must have shape \(2,\), got \(1,\)"),
            ({"c": [0.0, np.nan, 0.0]}, "c contains NaN or Inf entries"),
            ({"d": [np.inf, 0.0]}, "d contains NaN or Inf entries"),
        ],
        ids=["c-short", "c-column", "d-short", "c-nan", "d-inf"],
    )
    def test_quadratic_linear_terms_validated(self, kwargs, message):
        """Unchecked, a short c would broadcast into every primal prox, and a
        short d would fail in saddle_point's matmul."""
        with pytest.raises(ValueError, match=message):
            QuadraticSaddleProblem(np.ones((2, 3)), **kwargs)

    @pytest.mark.parametrize("name", ["gamma_g", "gamma_h_star"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -1.0])
    def test_quadratic_gammas_validated(self, name, value):
        """Unchecked, an infinite gamma would fail later, in the schedule,
        with a ZeroDivisionError."""
        with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0, got"):
            QuadraticSaddleProblem(np.ones((2, 3)), **{name: value})

    def test_stop_on_rules(self):
        rule = StoppingRule()
        assert (rule.max_iters, rule.tol, rule.stop_on, rule.residual_fn) == (
            10000, None, "both", None,
        )
        assert StoppingRule(50, 1e-3, "ergodic") == StoppingRule(
            max_iters=50, tol=1e-3, stop_on="ergodic"
        )
        with pytest.raises(ValueError, match="stop_on"):
            StoppingRule(50, 1e-3, "sometimes")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", float("nan")),
            ("tol", float("inf")),
            ("tol", -1e-3),
            ("max_iters", 2.5),
            ("max_iters", -1),
            ("max_iters", "10"),
            ("max_iters", True),
        ],
    )
    def test_stopping_rule_rejects_bad_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            StoppingRule(**{field: value})

    def test_stopping_rule_edge_values_stay_valid(self):
        prob = one_d_game()
        stop = StoppingRule(max_iters=0, tol=None)
        rep = run(prob, ConstantSchedule(0.5, 0.5, prob.op_norm), np.ones(1), np.ones(1), stop)
        assert rep.k == 0 and not rep.converged
        assert StoppingRule(np.int64(3), 0.0).max_iters == 3

    def test_unknown_stop_on_raises_with_a_residual_fn(self):
        with pytest.raises(ValueError, match="stop_on"):
            StoppingRule(50, 1e-3, "sometimes", residual_fn=lambda x, y: 0.0)
        prob = L1LogRegProblem(gen_logreg_data(6, 4, 0)[0], 2.0)
        with pytest.raises(ValueError, match="stop_on"):
            solve_l1_logreg(prob, tol=1e-3, stop_on="sometimes", residual_fn=lambda x, y: 0.0)

    def test_no_tol_never_converges_and_traces_the_dual_change(self):
        prob = random_game(1)
        x0, y0 = np.zeros(4), np.zeros(3)
        t = 0.9 / prob.op_norm
        K = 200
        rep = run(prob, ConstantSchedule(t, t, prob.op_norm), x0, y0, StoppingRule(K))
        assert rep.k == K and not rep.converged
        sched = ConstantSchedule(t, t, prob.op_norm)
        st = IterateState.initial(x0, y0)
        want = []
        for _ in range(K):
            st = step(prob, st, sched)
            want.append(np.linalg.norm(st.y - st.y_prev) / np.linalg.norm(st.y))
        np.testing.assert_array_equal(rep.residual_trace[:, 0], np.arange(1, K + 1))
        np.testing.assert_allclose(rep.residual_trace[:, 1], want, rtol=1e-12)
        # The dual change fell far below 1e-8; the regular test at that tol
        # stops the run.
        assert min(want) < 1e-12
        stop = StoppingRule(K, 1e-8, "regular")
        stopped = run(prob, ConstantSchedule(t, t, prob.op_norm), x0, y0, stop)
        assert stopped.converged and stopped.k < K

    @pytest.mark.parametrize("stop_on", ["regular", "ergodic", "both"])
    def test_residual_fn_stops_at_tol_and_traces_the_residual(self, stop_on):
        prob = one_d_game()
        seen = []

        def residual(x, y):
            seen.append(abs(x[0]) + abs(y[0]))
            return seen[-1]

        stop = StoppingRule(20000, 1e-6, stop_on, residual_fn=residual)
        rep = run(prob, ConstantSchedule(0.5, 0.5, prob.op_norm), np.ones(1), np.ones(1), stop)
        assert rep.converged and rep.k == len(seen)
        np.testing.assert_array_equal(rep.residual_trace[:, 1], seen)
        assert seen[-1] <= 1e-6 < min(seen[:-1])
        # Without a tol the residual is traced but never stops the run.
        seen.clear()
        stop = StoppingRule(rep.k + 5, stop_on=stop_on, residual_fn=residual)
        rep = run(prob, ConstantSchedule(0.5, 0.5, prob.op_norm), np.ones(1), np.ones(1), stop)
        assert not rep.converged and rep.k == len(seen)
        np.testing.assert_array_equal(rep.residual_trace[:, 1], seen)

    def test_regular_stop_waits_for_a_second_iterate(self):
        """From the barycentre, A x0 = 0 and the first acc-dual step leaves y
        at the box centre: its relative dual change is exactly 0, which must
        not stop the solve at k = 1."""
        prob = L1LogRegProblem(gen_logreg_data(30, 40, 0)[0], 5.0)
        regular = solve_l1_logreg(prob, stop_on="regular")
        both = solve_l1_logreg(prob, stop_on="both")
        assert regular.residual_trace[0].tolist() == [1.0, 0.0]
        assert regular.converged and regular.k > 1
        assert regular.residual_trace[-1][1] <= 1e-4
        assert regular.k <= both.k

    def test_max_iters_flagged_not_raised(self):
        prob = one_d_game()
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        stop = StoppingRule(max_iters=3, tol=1e-14, stop_on="regular")
        rep = run(prob, sched, np.array([1.0]), np.array([1.0]), stop)
        assert rep.k == 3 and not rep.converged

    def test_report_json_schema(self):
        prob = one_d_game()
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        rep = run(prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=5))
        payload = json.loads(rep.to_json())
        assert set(payload) == {
            "problem_id",
            "regime",
            "k",
            "converged",
            "wall_ms",
            "residual_trace",
            "terminal_primal_norm",
            "terminal_dual_norm",
        }
        assert payload["k"] == 5
        assert len(payload["residual_trace"]) == 5
        assert [k for k, _ in payload["residual_trace"]] == [1, 2, 3, 4, 5]
        assert all(type(k) is int and type(v) is float for k, v in payload["residual_trace"])

    def test_report_json_terminal_norms(self):
        """``to_json`` reports ||x|| and ||y|| of the terminal iterates, for
        an engine run and for a baseline's report alike."""
        prob = random_game(3)
        sched = ConstantSchedule(0.5 / prob.op_norm, 0.5 / prob.op_norm, prob.op_norm)
        game = MatrixGameProblem(gen_game_data(4, 3, 0), 0.5)
        for rep in (
            run(prob, sched, np.ones(4), -np.ones(3), StoppingRule(max_iters=5)),
            solve_game_pu(game, max_iters=5),
        ):
            payload = json.loads(rep.to_json())
            assert payload["terminal_primal_norm"] == np.linalg.norm(rep.x)
            assert payload["terminal_dual_norm"] == np.linalg.norm(rep.y)

    def test_delta_recording(self):
        prob = random_game(9)
        xs, ys = prob.saddle_point()
        theta, tau, sigma = linear_rate_params(prob.gamma_g, prob.gamma_h_star, prob.op_norm)
        sched = LinearRateSchedule(theta, tau, sigma, order="x-first")
        st = IterateState.initial(np.zeros_like(xs), np.zeros_like(ys))
        values = []
        for _ in range(50):
            st = step(prob, st, sched)
            values.append(delta_diag(prob, st, sched, xs, ys))
        assert all(v >= -1e-12 for v in values)
        assert values[-1] <= values[0]


class TestErgodic:
    def test_constant_weights_are_plain_averages(self):
        prob = one_d_game()
        sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
        st = IterateState.initial(np.array([1.0]), np.array([1.0]))
        xs_seen = []
        for _ in range(7):
            st = step(prob, st, sched)
            xs_seen.append(st.x[0])
        rep = run(
            prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=7)
        )
        np.testing.assert_allclose(rep.x_ergodic, [np.mean(xs_seen)], rtol=1e-13)

    def test_acc_primal_weights_match_definition(self):
        """X_K = sum(sigma_{k-1} x_k) / sum(sigma_{k-1}), computed directly."""
        prob = random_game(10)
        K = 25
        sched = AccPrimalSchedule(prob.gamma_g, prob.op_norm)
        st = IterateState.initial(np.zeros(prob.operator.cols), np.zeros(prob.operator.rows))
        num = np.zeros(prob.operator.cols)
        den = 0.0
        for _ in range(K):
            w = sched.sigma / sched.sigma0
            st = step(prob, st, sched)
            num += w * st.x
            den += w
        sched2 = AccPrimalSchedule(prob.gamma_g, prob.op_norm)
        rep = run(
            prob,
            sched2,
            np.zeros(prob.operator.cols),
            np.zeros(prob.operator.rows),
            StoppingRule(max_iters=K),
        )
        np.testing.assert_allclose(rep.x_ergodic, num / den, rtol=1e-12)

    def test_linear_rate_weights_survive_rescaling(self):
        """Geometric weights overflow double range near k ~ 700 for small
        theta; the rescaled accumulator must keep averaging sanely."""
        prob = one_d_game()
        theta, tau, sigma = linear_rate_params(1.0, 1.0, 1.0)
        sched = LinearRateSchedule(theta, tau, sigma, order="x-first")
        rep = run(
            prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=2000)
        )
        assert np.all(np.isfinite(rep.x_ergodic))
        # Late iterates dominate the geometric weights, so the average sits
        # essentially at the saddle point.
        assert abs(rep.x_ergodic[0]) < 1e-10


def eager_average_run(problem, schedule, x0, y0, stop):
    """The loop of ``run`` over ``step`` with the ergodic dual average formed
    on every iteration, whether or not a test reads it: the oracle for the
    lazy average of ``run``. Returns (k, trace, x_ergodic, y_ergodic)."""
    state = IterateState.initial(x0, y0)
    acc = ErgodicAccumulator(state.x.shape[0], state.y.shape[0])
    tol, stop_on = stop.tol, stop.stop_on
    trace, y_erg_prev = [], None
    for _ in range(stop.max_iters):
        growth = 1.0 if schedule.k == 0 else 1.0 / schedule.theta
        state = step(problem, state, schedule)
        acc.add(state.x, state.y, growth)
        monitored = _rel_change(state.y, state.y_prev)
        trace.append((state.k, monitored))
        y_avg = acc.y_avg
        regular_ok = state.k > 1 and monitored <= tol
        ergodic_ok = y_erg_prev is not None and _rel_change(y_avg, y_erg_prev) <= tol
        y_erg_prev = y_avg
        if (regular_ok or stop_on == "ergodic") and (ergodic_ok or stop_on == "regular"):
            break
    return state.k, np.array(trace, dtype=float), acc.x_avg, acc.y_avg


class TestLazyErgodicAverage:
    """``run`` forms the ergodic dual average only where the ergodic test
    reads it; every result must equal the eager oracle's bit for bit."""

    @pytest.mark.parametrize("stop_on", ["regular", "ergodic", "both"])
    @pytest.mark.parametrize("case", ["acc-dual", "linear-rate"])
    def test_run_matches_eager_oracle(self, case, stop_on):
        if case == "acc-dual":
            # The Lasso's own schedule. Under "both" the regular test passes,
            # fails and passes again before the stop, so the ergodic test
            # reads averages that the previous iteration did not form.
            A, b, _ = gen_lasso_data(20, 50, 4, 0.1, 0)
            problem = LassoProblem(A, b, 0.3)
            x0, y0 = problem.default_init(0)
            tol, make_schedule = 1e-5, problem.schedule
        else:
            # Weights grow by 1/theta = 100 per step: the accumulator
            # rescales near k = 60, well before the stop near k = 128.
            problem = random_game(5)
            x0, y0 = np.zeros(4), np.zeros(3)
            tol = 1e-10

            def make_schedule():
                return LinearRateSchedule(0.01, 0.5, 0.5, order="y-first")
        stop = StoppingRule(20000, tol, stop_on)
        rep = run(problem, make_schedule(), x0, y0, stop)
        k, trace, x_erg, y_erg = eager_average_run(problem, make_schedule(), x0, y0, stop)
        assert rep.converged and rep.k == k
        if case == "linear-rate":
            assert 100.0 ** (k - 1) > ErgodicAccumulator.RESCALE_AT
        assert rep.residual_trace.tobytes() == trace.tobytes()
        assert rep.x_ergodic.tobytes() == x_erg.tobytes()
        assert rep.y_ergodic.tobytes() == y_erg.tobytes()


class TestErgodicGapBound:
    def test_basic_method_rate(self):
        """Lagrangian gap of the averages against a fixed probe point obeys
        the (1 + sqrt(tau sigma)||A||)/K estimate."""
        prob = random_game(11)
        tau = sigma = 0.6 / prob.op_norm
        x0 = np.zeros(prob.operator.cols)
        y0 = np.zeros(prob.operator.rows)
        probe_x = np.ones(prob.operator.cols) * 0.5
        probe_y = np.ones(prob.operator.rows) * -0.5
        d0 = (
            prob.geom_x.divergence(probe_x, x0) / tau
            + prob.geom_y.divergence(probe_y, y0) / sigma
        )
        coef = 1.0 + np.sqrt(tau * sigma) * prob.op_norm
        for K in (1, 5, 20, 100):
            sched = ConstantSchedule(tau, sigma, prob.op_norm)
            rep = run(prob, sched, x0, y0, StoppingRule(max_iters=K))
            gap = prob.lagrangian(rep.x_ergodic, probe_y) - prob.lagrangian(
                probe_x, rep.y_ergodic
            )
            assert gap <= coef / K * d0 + 1e-12


class TestAccPrimalGlobalBound:
    def test_distance_shrinks_with_sigma(self):
        """gamma/(1+gamma tau0) D_x(saddle, x_K) stays under
        (sigma0/sigma_K) Delta_0 along the run."""
        prob = random_game(12)
        xs, ys = prob.saddle_point()
        sched = AccPrimalSchedule(prob.gamma_g, prob.op_norm)
        x0 = np.zeros(prob.operator.cols)
        y0 = np.zeros(prob.operator.rows)
        st = IterateState.initial(x0, y0)
        d0 = delta_diag(prob, st, sched, xs, ys)
        tau0, sigma0 = sched.tau0, sched.sigma0
        for _ in range(800):
            st = step(prob, st, sched)
            lhs = (
                prob.gamma_g
                / (1.0 + prob.gamma_g * tau0)
                * prob.geom_x.divergence(xs, st.x)
            )
            assert lhs <= (sigma0 / sched.sigma) * d0 * (1 + 1e-9) + 1e-20
        # and the primal iterate actually converged
        np.testing.assert_allclose(st.x, xs, atol=1e-4)


def test_worked_solvers_are_engine_solve():
    """The worked problems' solver names all bind the one ``engine.solve``."""
    assert solve_l1_logreg is solve_matrix_game is solve_lasso is engine.solve is nlpdhg.solve


class TestSolveStartPoint:
    """``solve`` checks a given start point against the interior of the
    problem's geometries before it iterates."""

    def test_game_x0_off_simplex_rejected(self):
        p = MatrixGameProblem(gen_game_data(3, 4, 0), 0.2)
        with pytest.raises(ValueError, match="simplex"):
            solve_matrix_game(p, x0=[0.5, 0.6, -0.2, 0.1], max_iters=10)

    def test_logreg_y0_on_box_boundary_rejected(self):
        B, _, _ = gen_logreg_data(6, 4, 0)
        p = L1LogRegProblem(B, 2.0)
        y0 = np.full(p.m, 0.5 / p.m)
        y0[0] = 1.0 / p.m
        with pytest.raises(ValueError, match="boundary of the box"):
            solve_l1_logreg(p, y0=y0, max_iters=10)

    @pytest.mark.parametrize(
        "problem, start",
        [
            (MatrixGameProblem(np.eye(2), 0.5), {"y0": np.full(3, 1 / 3)}),
            (L1LogRegProblem(np.ones((2, 1)), 1.0), {"x0": np.full(3, 1 / 3)}),
            (L1LogRegProblem(np.ones((2, 1)), 1.0), {"y0": np.full(3, 1 / 6)}),
        ],
        ids=["game-y0", "logreg-x0", "logreg-y0"],
    )
    def test_start_point_named_by_its_argument(self, problem, start):
        """The message names the argument, not the geometry's own variable:
        a simplex check once said "x" for the game's y0."""
        (name,) = start
        with pytest.raises(ValueError) as exc:
            engine.solve(problem, max_iters=10, **start)
        assert str(exc.value) == f"{name} must have shape (2,), got (3,)"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": float("nan")}, "tol must be a finite number >= 0, got nan"),
            ({"max_iters": 2.5}, "max_iters must be an integer >= 0, got 2.5"),
        ],
        ids=["nan-tol", "fractional-max-iters"],
    )
    def test_stopping_rule_checked_before_the_start_point(self, monkeypatch, kwargs, message):
        """A bad ``tol`` or ``max_iters`` is refused before ``default_init``
        runs, as every baseline builds its rule first."""
        p = MatrixGameProblem(gen_game_data(3, 4, 0), 0.2)
        monkeypatch.setattr(p, "default_init", lambda seed: pytest.fail("default_init ran"))
        with pytest.raises(ValueError) as exc:
            solve_matrix_game(p, **kwargs)
        assert str(exc.value) == message
