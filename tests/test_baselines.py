"""Baseline solvers: projection, Euclidean PDHG, FISTA, FB, PU and OMWU."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from nlpdhg import baselines
from nlpdhg.baselines import (
    fista_lasso,
    omwu_learning_rate,
    project_l1_ball,
    prox_gradient_lasso,
    pu_learning_rate,
    solve_fb_logreg,
    solve_game_omwu,
    solve_game_pu,
    solve_linear_pdhg_game,
    solve_linear_pdhg_logreg,
)
from nlpdhg.bregman import sigmoid, softmax
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.engine import StoppingRule
from nlpdhg.problems.games import MatrixGameProblem, game_optimality_residual, solve_matrix_game
from nlpdhg.problems.lasso import LassoProblem, solve_lasso
from nlpdhg.problems.logreg import L1LogRegProblem, recover_v, solve_l1_logreg

from _oracles import l1_projection_bisection_oracle


class TestProjectL1Ball:
    def test_interior_unchanged(self):
        v = np.array([0.3, -0.2, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_axis_case(self):
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])

    def test_hand_kkt_case(self):
        # Threshold 0.5 moves (2, 1) to (1.5, 0.5).
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 1.0]), 2.0), [1.5, 0.5])

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="radius"):
            project_l1_ball(np.ones(2), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="^v contains NaN or Inf entries$"):
            project_l1_ball(np.array([0.5, bad, 2.0]), 1.0)

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 12))
            v = rng.standard_normal(d) * rng.uniform(0.5, 3)
            r = float(rng.uniform(0.2, 2.0))
            got = project_l1_ball(v, r)
            want = l1_projection_bisection_oracle(v, r)
            np.testing.assert_allclose(got, want, atol=1e-10)
            assert np.abs(got).sum() <= r * (1 + 1e-12)

    def test_kkt_residual(self):
        """Projection output satisfies the soft-threshold KKT system."""
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal(8) * 2.0
            r = 1.0
            u = project_l1_ball(v, r)
            if np.abs(v).sum() <= r:
                np.testing.assert_array_equal(u, v)
                continue
            # active threshold theta: u = sign(v) max(|v| - theta, 0), sum|u| = r
            nz = u != 0
            thetas = np.abs(v[nz]) - np.abs(u[nz])
            assert np.ptp(thetas) < 1e-12
            theta = thetas[0]
            assert np.all(np.abs(v[~nz]) <= theta + 1e-12)
            assert abs(np.abs(u).sum() - r) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(6) * 3
        u = project_l1_ball(v, 1.0)
        np.testing.assert_array_equal(project_l1_ball(u, 1.0), u)

    @pytest.mark.parametrize("v", [[1e17, 0.0], [-1e17, 5e16]], ids=["one-huge", "two-huge"])
    def test_entry_that_dwarfs_the_radius(self, v):
        """css - radius rounds to the largest entry itself, so the strict
        threshold test rejects every index; the projection still returns a
        point of the ball."""
        u = project_l1_ball(np.array(v), 1.0)
        assert np.abs(u).sum() <= 1.0

    @pytest.mark.parametrize(
        "v, want",
        [([1e17, 0.0], [1.0, 0.0]), ([-3e16, 1.0, 0.5], [-1.0, 0.0, 0.0])],
        ids=["positive", "negative"],
    )
    def test_vertex_where_rounding_hides_the_radius(self, v, want):
        """css[0] - radius rounds to the largest entry, so every entry would
        be thresholded to zero; the projection is the ball's vertex on the
        largest entry, with its sign."""
        np.testing.assert_array_equal(project_l1_ball(np.array(v), 1.0), want)

    @pytest.mark.parametrize(
        "v, want",
        [
            ([-3e16, 1.0, 0.5], [-2.5, 0.0, 0.0]),
            ([3e16, -0.0, 0.0], [2.5, 0.0, 0.0]),
            ([3e16, -1.0, -0.0], [2.5, -0.0, 0.0]),
        ],
        ids=["negative", "negative-zero", "signed-zeros"],
    )
    def test_one_survivor_is_the_vertex(self, v, want):
        """With one surviving entry, css[0] - radius rounds to the spacing of
        3e16 (4), so thresholding through it gave |u_0| = 4 > 2.5. The vertex
        is set exactly, and the other entries vanish with the signs of
        np.sign(v) * 0.0: -0.0 for a negative entry, +0.0 for a -0.0 one."""
        got = project_l1_ball(np.array(v), 2.5)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestFista:
    def test_t_sequence(self):
        """t0 = 0 -> t1 = 1 -> t2 = golden mean; first beta clamped to 0."""
        t = 0.0
        t1 = 0.5 * (1 + np.sqrt(1 + 4 * t**2))
        assert t1 == 1.0
        t2 = 0.5 * (1 + np.sqrt(1 + 4 * t1**2))
        np.testing.assert_allclose(t2, (1 + np.sqrt(5)) / 2)
        beta1 = (t - 1.0) / t1
        assert beta1 == -1.0  # the documented anomaly; solver clamps to 0

    def test_scalar_instance_agrees_with_nonlinear(self):
        p = LassoProblem(np.array([[1.0]]), np.array([1.0]), 1.0)
        rep = fista_lasso(p, tol=1e-12, max_iters=10000)
        assert rep.x[0] == 0.0
        nl = solve_lasso(p, tol=1e-10)
        assert abs(p.objective(rep.x) - p.objective(nl.x)) < 1e-10

    def test_matches_ista_oracle(self):
        A, b, _ = gen_lasso_data(12, 20, 3, 0.1, 7)
        lam = 0.4 * np.max(np.abs(A.T @ b)) / 12
        p = LassoProblem(A, b, lam)
        rep = fista_lasso(p, tol=1e-12, max_iters=200000)
        x_fb = prox_gradient_lasso(A, b, lam, tol=1e-12)
        assert abs(p.objective(rep.x) - p.objective(x_fb)) < 1e-9

    def test_matrix_with_ones_in_its_nullspace(self):
        """A 1 = 0 once made norm_2_2 read 0 and the step size 1/0."""
        p = LassoProblem([[1.0, -1.0], [2.0, -2.0]], [1.0, 0.5], 0.1)
        rep = fista_lasso(p, tol=1e-12)
        assert rep.converged
        x_fb = prox_gradient_lasso(p.operator.matrix, p.b, p.lam, tol=1e-12)
        assert abs(p.objective(rep.x) - p.objective(x_fb)) < 1e-12

    @pytest.mark.parametrize(
        "A, b, message",
        [
            ([[1.0 + 1j, 2.0]], [1.0], "^matrix must be real, got complex entries$"),
            ([[1.0, 2.0]], [1.0 + 1j], "^b must be real, got complex entries$"),
            (np.zeros((2, 3)), [1.0, 0.5], r"^A has operator norm 0 \(all zeros\)"),
        ],
        ids=["complex-A", "complex-b", "zero-A"],
    )
    def test_ista_oracle_refuses_what_the_problem_refuses(self, A, b, message):
        """In ``LassoProblem``'s words; a float cast would keep only the real
        part, and an all-zero A would take the step m / 0."""
        with pytest.raises(ValueError, match=message):
            LassoProblem(A, b, 0.1)
        with pytest.raises(ValueError, match=message):
            prox_gradient_lasso(A, b, 0.1)

    def test_ista_oracle_raises_when_not_converged(self):
        """The oracle never hands back an unconverged iterate."""
        A, b, _ = gen_lasso_data(12, 20, 3, 0.05, seed=8)
        lam = 0.4 * np.max(np.abs(A.T @ b)) / 12
        with pytest.raises(RuntimeError, match="iterate change .* still above tol 1e-12 after 1 "):
            prox_gradient_lasso(A, b, lam, tol=1e-12, max_iters=1)


class TestGameBaselines:
    def test_learning_rate_formulas(self):
        p = MatrixGameProblem(np.array([[1.0]]), 0.5)
        assert pu_learning_rate(p) == 1.0 / 3.0
        assert omwu_learning_rate(p) == 0.25
        # At lam = 10 the bounds 1/(lam + ||A||) and 1/(2 lam + 2 ||A||) bind.
        p = MatrixGameProblem(np.array([[1.0]]), 10.0)
        assert pu_learning_rate(p) == 1.0 / 11.0
        assert omwu_learning_rate(p) == 1.0 / 22.0
        p = MatrixGameProblem(np.zeros((2, 2)), 10.0)
        assert pu_learning_rate(p) == 0.1
        assert omwu_learning_rate(p) == 0.05

    def test_one_by_one_game(self):
        p = MatrixGameProblem(np.array([[2.0]]), 0.5)
        for solver in (solve_game_pu, solve_game_omwu):
            rep = solver(p, tol=1e-12, max_iters=1000)
            np.testing.assert_allclose(rep.x, [1.0])
            np.testing.assert_allclose(rep.y, [1.0])

    def test_zero_game_converges_to_uniform(self):
        """With no payoff the entropy pulls both players to uniform; 100
        iterations at lam = 1 is plenty. Linear PDHG falls back to norm 1
        for the zero payoff, as nonlinear PDHG does."""
        p = MatrixGameProblem(np.zeros((4, 4)), 1.0)
        for solver in (solve_game_pu, solve_game_omwu, solve_linear_pdhg_game, solve_matrix_game):
            rep = solver(p, tol=0.0, max_iters=100, seed=1)
            assert np.max(np.abs(rep.x - 0.25)) < 1e-8
            assert np.max(np.abs(rep.y - 0.25)) < 1e-8

    def test_pu_omwu_reach_equilibrium(self):
        p = MatrixGameProblem(gen_game_data(8, 8, 5), 0.2)
        for solver in (solve_game_pu, solve_game_omwu):
            rep = solver(p, tol=1e-12, max_iters=50000)
            r1, r2 = game_optimality_residual(p, rep.x, rep.y)
            assert r2 < 1e-8

    @pytest.mark.parametrize(
        "payoff", [gen_game_data(5, 5, 0), np.zeros((4, 4))], ids=["5x5", "zero-4x4"]
    )
    def test_pu_omwu_converge_at_large_lam(self, payoff):
        """A step that ignores lam makes the damping 1 - eta lam fall below -1
        at lam = 10, and the log iterates blow up."""
        p = MatrixGameProblem(payoff, 10.0)
        for solver in (solve_game_pu, solve_game_omwu):
            rep = solver(p, tol=1e-12, max_iters=5000)
            assert rep.converged
            assert game_optimality_residual(p, rep.x, rep.y)[1] < 1e-10

    def test_linear_pdhg_game_agrees_with_nonlinear(self):
        p = MatrixGameProblem(gen_game_data(6, 6, 9), 0.3)
        lin = solve_linear_pdhg_game(p, tol=1e-9, max_iters=20000, seed=0)
        nl = solve_matrix_game(p, tol=1e-9, max_iters=20000, seed=0)
        np.testing.assert_allclose(lin.x, nl.x, atol=1e-5)
        np.testing.assert_allclose(lin.y, nl.y, atol=1e-5)

    def test_linear_pdhg_game_on_rock_paper_scissors(self):
        """The all-ones vector is in the payoff's nullspace, so the step
        size needs norm_2_2's restart: sqrt 3, not 0."""
        rps = [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]
        rep = solve_linear_pdhg_game(MatrixGameProblem(rps, 0.1), tol=1e-8, max_iters=1000)
        assert rep.converged
        np.testing.assert_allclose(rep.x, np.full(3, 1.0 / 3.0), atol=1e-7)
        np.testing.assert_allclose(rep.y, np.full(3, 1.0 / 3.0), atol=1e-7)

    def test_linear_pdhg_game_on_a_block_payoff(self):
        """A 1 = 0, and the largest column's basis vector is orthogonal to
        the top right singular vector. Restarted there, norm_2_2 read sqrt 8
        for sqrt 18, and the steps (tau sigma ||A||^2 = 2.25) ran 20000
        iterations without converging."""
        payoff = np.zeros((2, 10))
        payoff[0, :2], payoff[1, 2:6], payoff[1, 6:] = (2.0, -2.0), 1.5, -1.5
        p = MatrixGameProblem(payoff, 0.1)
        rep = solve_linear_pdhg_game(p, tol=1e-8, max_iters=20000)
        assert rep.converged
        nl = solve_matrix_game(p, tol=1e-9, max_iters=20000)
        np.testing.assert_allclose(rep.x, nl.x, atol=1e-6)
        np.testing.assert_allclose(rep.y, nl.y, atol=1e-6)


class TestLogRegBaselines:
    def test_projection_keeps_feasibility(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((6, 4))
        p = L1LogRegProblem(B, 1.5)
        rep = solve_linear_pdhg_logreg(p, tol=1e-6, max_iters=2000)
        assert np.abs(rep.x).sum() <= p.lam * (1 + 1e-12)

    def test_toy_agreement_with_nonlinear(self):
        """m = d = 1 toy: linear and nonlinear solvers recover the same v."""
        p = L1LogRegProblem(np.array([[-1.0]]), 1.0)
        lin = solve_linear_pdhg_logreg(p, tol=1e-8, max_iters=20000)
        nl = solve_l1_logreg(p, tol=1e-8, max_iters=200000)
        v_nl = recover_v(nl.x, p.lam)
        assert abs(lin.x[0] - v_nl[0]) < 1e-4

    def test_fb_splitting_descends(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((10, 5))
        p = L1LogRegProblem(B, 2.0)
        rep = solve_fb_logreg(p, tol=1e-8, max_iters=5000)
        assert p.objective_v(rep.x) < p.objective_v(np.full(5, 1.0 / 5))
        assert np.abs(rep.x).sum() <= p.lam * (1 + 1e-12)

    def test_fb_on_a_matrix_with_ones_in_its_nullspace(self):
        p = L1LogRegProblem([[1.0, -1.0], [2.0, -2.0]], 1.0)
        rep = solve_fb_logreg(p, tol=1e-10)
        assert rep.converged
        # Any v on the ball with v1 - v2 = -1 minimizes; each attains this.
        assert abs(p.objective_v(rep.x) - p.objective_v(np.array([-0.5, 0.5]))) < 1e-12

    def test_all_solvers_share_the_terminal_objective(self):
        """On a small non-separable instance (m > d, tight ball) every
        logistic solver lands on the same constrained objective to 1e-5."""
        rng = np.random.default_rng(12)
        u = rng.standard_normal((12, 4))
        labels = rng.choice([-1.0, 1.0], 12)
        p = L1LogRegProblem(-labels[:, None] * u, 0.5)
        nl = solve_l1_logreg(p, tol=1e-7, max_iters=300000)
        obj_nl = p.objective_v(recover_v(nl.x, p.lam))
        lin = solve_linear_pdhg_logreg(p, tol=1e-7, max_iters=30000)
        fb = solve_fb_logreg(p, tol=1e-9, max_iters=100000)
        assert abs(p.objective_v(lin.x) - obj_nl) < 1e-5
        assert abs(p.objective_v(fb.x) - obj_nl) < 1e-5

    def test_game_solvers_share_the_terminal_objective(self):
        """Regularized primal game objective agrees across nonlinear PDHG,
        linear PDHG, PU and OMWU on a shared instance."""
        p = MatrixGameProblem(gen_game_data(7, 7, 13), 0.25)

        def primal(x):
            z = p.operator.apply(x) / p.lam
            lse = np.log(np.sum(np.exp(z - z.max()))) + z.max()
            return p.lam * (np.sum(x * np.log(x)) + lse)

        ref = primal(solve_matrix_game(p, tol=1e-10, max_iters=50000, seed=0).x)
        for rep in (
            solve_linear_pdhg_game(p, tol=1e-9, max_iters=30000, seed=0),
            solve_game_pu(p, tol=1e-11, max_iters=100000, seed=0),
            solve_game_omwu(p, tol=1e-11, max_iters=100000, seed=0),
        ):
            assert abs(primal(np.maximum(rep.x, 1e-300)) - ref) < 1e-5

    # The conjugate gradients and ``lip`` values of the two linear-PDHG
    # inner solves: logistic with sigma = 1e-4, m = 2, and entropic with
    # c = 1e-3.
    @pytest.mark.parametrize(
        "conj_grad, lip",
        [
            (lambda u: sigmoid(u / 1e-4) / 2, 1.0 + 1.0 / (4e-4 * 2)),
            (lambda u: softmax(u / 1e-3), 1.0 + 1.0 / 1e-3),
        ],
        ids=["logistic", "entropy"],
    )
    def test_inner_nonconvergence_carries_residual(self, conj_grad, lip, monkeypatch):
        monkeypatch.setattr(baselines, "_INNER_TOL", 1e-14)
        monkeypatch.setattr(baselines, "_INNER_MAX_ITERS", 3)
        z = np.array([5.0, -5.0])
        with pytest.raises(baselines.InnerSolveError, match="above tolerance 1e-14") as exc:
            baselines._moreau(z, conj_grad, lip, np.zeros(2))
        assert exc.value.residual > 0

    def test_sigma_to_zero_inner_limit(self, monkeypatch):
        """As sigma -> 0 the scaled conjugate tends to the hinge max(u, 0)/m,
        so the dual update z - argmin degenerates to the box projection
        clip(z, 0, 1/m)."""
        monkeypatch.setattr(baselines, "_INNER_TOL", 1e-12)
        m, sigma = 2, 1e-3
        z = np.array([0.4, -0.2, 0.8])
        y, u = baselines._moreau(
            z, lambda u: sigmoid(u / sigma) / m, 1.0 + 1.0 / (4.0 * sigma * m), z.copy()
        )
        np.testing.assert_array_equal(y, z - u)  # the dual update the solver would take
        np.testing.assert_allclose(y, np.clip(z, 0.0, 1.0 / m), atol=0.05)


# The solvers that run their own loop rather than ``engine.run``, and the
# ISTA oracle on a Lasso problem's data.
OWN_LOOP_SOLVERS = {
    "fb": solve_fb_logreg,
    "fista": fista_lasso,
    "pu": solve_game_pu,
    "omwu": solve_game_omwu,
    "ista": lambda p, **kw: prox_gradient_lasso(p.operator.matrix, p.b, p.lam, **kw),
}


def _own_loop_problem(name):
    if name == "fb":
        return L1LogRegProblem(gen_logreg_data(8, 5, 0)[0], 2.0)
    if name in ("fista", "ista"):
        A, b, _ = gen_lasso_data(8, 12, 3, 0.1, 0)
        return LassoProblem(A, b, 0.3)
    return MatrixGameProblem(gen_game_data(6, 5, 0), 0.1)


@pytest.mark.parametrize("name", list(OWN_LOOP_SOLVERS))
class TestStoppingContract:
    """FB, FISTA, PU, OMWU and the ISTA oracle stop by ``StoppingRule``, as
    the PDHG solvers do: the same errors for a bad ``tol`` or ``max_iters``,
    and ``tol=None`` runs to the cap."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", float("nan")),
            ("tol", float("inf")),
            ("tol", -1.0),
            ("max_iters", 2.5),
            ("max_iters", -1),
            ("max_iters", True),
        ],
    )
    def test_bad_numbers_rejected_before_any_work(self, monkeypatch, name, field, value):
        problem = _own_loop_problem(name)
        norm_calls = []
        monkeypatch.setattr(baselines, "norm_2_2", lambda op: norm_calls.append(op))
        kwargs = {"tol": 1e-6, "max_iters": 10, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            OWN_LOOP_SOLVERS[name](problem, **kwargs)
        assert norm_calls == []

    def test_no_tol_runs_to_the_cap(self, name):
        if name == "ista":
            # The oracle hands back only a converged iterate: at the cap it raises.
            with pytest.raises(RuntimeError, match="still above tol None after 7 iterations"):
                OWN_LOOP_SOLVERS[name](_own_loop_problem(name), tol=None, max_iters=7)
            return
        rep = OWN_LOOP_SOLVERS[name](_own_loop_problem(name), tol=None, max_iters=7)
        assert rep.k == 7 and not rep.converged
        assert len(rep.residual_trace) == 7


# What ``_fista`` reads of a problem: the id its report names.
_FISTA_PROBLEM = SimpleNamespace(problem_id="fista")


class TestNonFiniteIterate:
    """The FISTA and MWU loops raise on a non-finite iterate, as
    ``engine.run`` does, instead of running to the cap."""

    @staticmethod
    def fista_step(bad_k, value):
        k = 0

        def step(w):
            nonlocal k
            k += 1
            return np.full_like(w, value) if k == bad_k else 0.5 * w

        return step

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_fista_raises(self, value):
        step = self.fista_step(3, value)
        with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match="^non-finite iterate at k=3$"
        ):
            baselines._fista(_FISTA_PROBLEM, "fista", step,
                             lambda new, old: float(np.abs(new - old).sum()), np.zeros_like,
                             np.ones(4), StoppingRule(100, 1e-12), time.perf_counter())

    def test_fista_scans_only_a_non_finite_monitored_value(self):
        """An infinite monitored value of a finite iterate is no failure."""
        report = baselines._fista(_FISTA_PROBLEM, "fista", lambda w: 0.5 * w,
                                  lambda new, old: np.inf, np.zeros_like, np.ones(4),
                                  StoppingRule(5, 1e-12), time.perf_counter())
        assert (report.k, report.converged) == (5, False) and np.isfinite(report.x).all()

    @pytest.mark.parametrize("player", ["x", "y"])
    def test_mwu_raises(self, player):
        """A NaN in either player's gradient raises at once; for y it is the
        second argument of the max that the loop monitors."""
        problem = MatrixGameProblem(gen_game_data(6, 5, 0), 0.1)
        op = problem.operator
        calls = 0

        def gradients(step, lx, ly, x, y):
            nonlocal calls
            calls += 1
            g = {"x": op.adjoint_apply(y), "y": op.apply(x)}
            if calls == 3:
                g[player] = np.full_like(g[player], np.nan)
            return g["x"], g["y"]

        with pytest.raises(RuntimeError, match="^non-finite iterate at k=3$"):
            baselines._mwu(problem, "mwu", 0.1, gradients, 0, StoppingRule(100, 1e-12))


class TestWallTime:
    """A baseline's wall time counts from before its ``norm_2_2`` call."""

    @pytest.mark.parametrize(
        "solver, make",
        [
            (solve_linear_pdhg_logreg, lambda: L1LogRegProblem(gen_logreg_data(6, 4, 1)[0], 3.0)),
            (solve_linear_pdhg_game, lambda: MatrixGameProblem(gen_game_data(5, 4, 1), 0.2)),
            (solve_fb_logreg, lambda: L1LogRegProblem(gen_logreg_data(6, 4, 1)[0], 3.0)),
            (fista_lasso, lambda: LassoProblem(*gen_lasso_data(6, 9, 3, 0.1, 1)[:2], 0.05)),
        ],
        ids=["linear-pdhg-logreg", "linear-pdhg-game", "fb-logreg", "fista-lasso"],
    )
    def test_wall_time_includes_the_norm(self, monkeypatch, solver, make):
        original = baselines.norm_2_2

        def slow_norm(*args, **kwargs):
            time.sleep(0.05)
            return original(*args, **kwargs)

        monkeypatch.setattr(baselines, "norm_2_2", slow_norm)
        report = solver(make(), max_iters=3)
        assert report.k == 3 and report.wall_ms >= 50.0
