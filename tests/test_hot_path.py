"""The in-place hot path: each rewritten helper equals its plain formula bit
for bit, each prox (one geometry ``step``) equals the body it replaced, and
no prox or operator action writes to its arguments. Entropic coordinates
that underflow to 0 stay 0 without a warning. Every registered solver
multiplies through its operator and iterates in the one loop driver."""

import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import (
    game_dual_prox_reference,
    game_primal_prox_reference,
    lasso_dual_prox_reference,
    logreg_dual_prox_reference,
    logreg_primal_prox_reference,
    quadratic_dual_prox_reference,
    quadratic_primal_prox_reference,
    rel_change_reference,
    shrink1_reference,
    sigmoid_reference,
    softmax_reference,
    softplus_reference,
)
from nlpdhg import baselines, bench, engine
from nlpdhg.baselines import solve_linear_pdhg_game, solve_linear_pdhg_logreg
from nlpdhg.bregman import sigmoid, softmax
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.engine import IterateState, StoppingRule, _norm, _rel_change
from nlpdhg.operators import DenseOperator, ScaledConcat
from nlpdhg.problems import L1LogRegProblem, LassoProblem, MatrixGameProblem
from nlpdhg.problems.lasso import shrink1
from nlpdhg.problems.logreg import _softplus, solve_l1_logreg
from nlpdhg.problems.quadratic import QuadraticSaddleProblem

finite = st.floats(allow_nan=False, allow_infinity=False)
vectors = arrays(np.float64, st.integers(1, 40), elements=finite)
# Entries past |w| = 710, where exp overflows, and +-inf, beside finite ones.
extended_vectors = arrays(np.float64, st.integers(1, 40), elements=st.one_of(
    finite, st.floats(-800.0, 800.0), st.floats(allow_nan=False)
))


@st.composite
def softmax_inputs(draw):
    """Moderate entries make the normalisation round; extreme ones overflow
    the shift. Some draws repeat the maximum, or make it +0.0 or -0.0
    (every entry <= 0, zeros of either sign)."""
    t = draw(arrays(
        np.float64, st.integers(1, 40), elements=st.one_of(st.floats(-30.0, 30.0), finite)
    ))
    top = draw(st.sampled_from(["as drawn", "repeated", "signed zero"]))
    if top != "as drawn":
        spots = draw(st.lists(
            st.integers(0, t.size - 1), min_size=min(2, t.size), max_size=t.size, unique=True
        ))
        if top == "repeated":
            t[spots] = t.max()
        else:
            t = -np.abs(t)
            t[spots] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=len(spots),
                                     max_size=len(spots)))
    return t


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(softmax_inputs(), st.data())
@settings(max_examples=300, deadline=None)
def test_softmax_matches_reference_at_extreme_inputs(t, data):
    with np.errstate(over="ignore"):
        assert same_bits(softmax(t), softmax_reference(t))
    # A NaN anywhere makes every entry NaN.
    t[data.draw(st.integers(0, t.size - 1))] = np.nan
    assert np.isnan(softmax(t)).all()


@given(finite, st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_softmax_matches_reference_at_constant_inputs(c, n):
    t = np.full(n, c)
    assert same_bits(softmax(t), softmax_reference(t))
    assert same_bits(softmax(t), np.full(n, 1.0 / n))


@given(extended_vectors)
@settings(max_examples=200, deadline=None)
def test_sigmoid_matches_reference(w):
    assert same_bits(sigmoid(w), sigmoid_reference(w))


@given(extended_vectors)
@settings(max_examples=200, deadline=None)
def test_softplus_matches_reference(t):
    assert same_bits(_softplus(t), softplus_reference(t))


def test_sigmoid_takes_integer_and_list_input():
    """Integer input is converted to float, not cut to an integer result,
    and a list is taken like the array it names."""
    ints = np.array([0, 1, -2, 40, -800])
    want = sigmoid_reference(ints.astype(float))
    assert same_bits(sigmoid(ints), want)
    assert same_bits(sigmoid(ints.tolist()), want)
    assert sigmoid(ints)[0] == 0.5 and 0.0 < sigmoid(ints)[2] < 0.5


@st.composite
def threshold_cases(draw):
    beta = draw(st.floats(1e-300, 1e300))
    special = st.sampled_from(
        [0.0, -0.0, beta, -beta, np.nextafter(beta, 0.0), np.nextafter(-beta, 0.0)]
    )
    x = draw(st.lists(st.one_of(special, finite), min_size=1, max_size=30))
    return np.array(x), beta


@given(threshold_cases())
@settings(max_examples=200, deadline=None)
def test_shrink1_matches_reference_at_zeros_and_ties(case):
    x, beta = case
    assert same_bits(shrink1(x, beta), shrink1_reference(x, beta))


@given(st.data(), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_rel_change_matches_reference(data, n):
    elems = st.floats(-1e150, 1e150)
    old = data.draw(arrays(np.float64, n, elements=elems))
    zero = data.draw(st.booleans())
    new = np.zeros(n) if zero else data.draw(arrays(np.float64, n, elements=elems))
    assert _rel_change(new, old) == rel_change_reference(new, old)
    assert _rel_change(new, old, np.linalg.norm(new)) == rel_change_reference(new, old)


@given(vectors, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_norm_matches_numpy_on_strided_views(v, stride):
    with np.errstate(over="ignore"):
        assert _norm(v[::stride]) == np.linalg.norm(v[::stride])


# Step sizes and weights from 1e-300 to 1e300: 1 + lam tau rounds to 1 at
# one end and overflows at the other.
extreme = st.floats(1e-300, 1e300)
gammas = st.one_of(st.just(0.0), extreme)
products = st.one_of(st.floats(-1e3, 1e3), finite)


def _prox_pairs(kind, draw):
    """The (prox, replaced body) results of both proxes of a ``kind``
    problem at drawn points. The problem is built on an all-ones matrix:
    its proxes read no matrix."""
    m, n = draw(st.integers(1, 20)), draw(st.integers(1, 20))

    def vec(size, elements=products):
        return draw(arrays(np.float64, size, elements=elements))

    # Entropic points: exact zeros, subnormals and entries up to 1.
    def entropic(size):
        return vec(size, st.one_of(st.just(0.0), st.floats(5e-324, 1.0)))

    tau, sigma = draw(extreme), draw(extreme)
    ones = np.ones((m, n))
    if kind == "game":
        lam = draw(extreme)
        p = MatrixGameProblem(ones, lam)
        aty, ax, x_bar, y_bar = vec(n), vec(m), entropic(n), entropic(m)
        return [
            (p.primal_prox(aty, x_bar, tau), game_primal_prox_reference(aty, x_bar, tau, lam)),
            (p.dual_prox(ax, y_bar, sigma), game_dual_prox_reference(ax, y_bar, sigma, lam)),
        ]
    if kind == "logreg":
        p = L1LogRegProblem(ones, 1.0)
        aty, ax, x_bar = vec(2 * n), vec(m), entropic(2 * n)
        y_bar = vec(m, st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))) / m
        return [
            (p.primal_prox(aty, x_bar, tau), logreg_primal_prox_reference(aty, x_bar, tau)),
            (p.dual_prox(ax, y_bar, sigma), logreg_dual_prox_reference(ax, y_bar, sigma, m)),
        ]
    if kind == "lasso":
        b, ax, y_bar = vec(m), vec(m), vec(m)
        p = LassoProblem(ones, b, draw(extreme))
        return [(p.dual_prox(ax, y_bar, sigma), lasso_dual_prox_reference(ax, y_bar, sigma, b, m))]
    gamma_g, gamma_h, c, d = draw(gammas), draw(gammas), vec(n), vec(m)
    p = QuadraticSaddleProblem(ones, gamma_g, gamma_h, c, d)
    aty, ax, x_bar, y_bar = vec(n), vec(m), vec(n), vec(m)
    return [
        (p.primal_prox(aty, x_bar, tau),
         quadratic_primal_prox_reference(aty, x_bar, tau, c, gamma_g)),
        (p.dual_prox(ax, y_bar, sigma),
         quadratic_dual_prox_reference(ax, y_bar, sigma, d, gamma_h)),
    ]


@pytest.mark.parametrize("kind", ["game", "logreg", "lasso", "quadratic"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_each_prox_step_matches_the_body_it_replaced(kind, data):
    """Each prox is one geometry ``step``; it keeps the bits of the prox
    body written out before, at exact zeros, subnormals, and step sizes and
    weights from 1e-300 to 1e300."""
    with np.errstate(all="ignore"):
        pairs = _prox_pairs(kind, data.draw)
    for got, want in pairs:
        assert same_bits(got, want)


def _zeros_kept(problem, x0, y0, zeros_x, zeros_y):
    """200 ``engine.step`` calls and a 200-iteration ``run`` from (x0, y0),
    warnings raised as errors: each keeps every exact zero it has reached
    and the two end at the same bits. Returns the last x."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, schedule = IterateState.initial(x0, y0), problem.schedule()
        for _ in range(200):
            state = engine.step(problem, state, schedule)
            now_x, now_y = state.x == 0.0, state.y == 0.0
            assert now_x[zeros_x].all() and now_y[zeros_y].all()
            zeros_x, zeros_y = now_x, now_y
        report = engine.run(problem, problem.schedule(), x0, y0, StoppingRule(200))
    assert same_bits(report.x, state.x) and same_bits(report.y, state.y)
    return state.x


def test_underflowed_logreg_coordinates_stay_zero_without_a_warning():
    """This problem's x first underflows to exact zeros at k = 110; the
    next log 0 = -inf is silenced by the engine, and the zero stays."""
    problem = L1LogRegProblem(gen_logreg_data(8, 6, 9)[0], 2.0)
    x0, y0 = problem.default_init()
    none = np.zeros(problem.n, dtype=bool)
    x = _zeros_kept(problem, x0, y0, none, np.zeros(problem.m, dtype=bool))
    assert x.any() and (x == 0.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_l1_logreg(problem, tol=None, max_iters=200)
    assert same_bits(report.x, x)


def test_zero_game_coordinates_stay_zero_without_a_warning():
    problem = MatrixGameProblem(gen_game_data(5, 4, 1), 0.2)
    x0, y0 = problem.default_init(seed=3)
    x0[1], y0[3] = 0.0, 0.0
    x0, y0 = x0 / x0.sum(), y0 / y0.sum()
    zx, zy = x0 == 0.0, y0 == 0.0
    _zeros_kept(problem, x0, y0, zx, zy)
    # The silencing is the engine's: a bare step at the zero warns.
    aty = problem.operator.adjoint_apply(y0)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        problem.geom_x.step(x0, aty, -0.5, 1.1)


def test_scaled_concat_matches_plain_formula():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((7, 5))
    op = ScaledConcat(B, 2.5)
    x, y = rng.random(10), rng.standard_normal(7)
    bty = 2.5 * (B.T @ y)
    assert same_bits(op.apply(x), 2.5 * (B @ (x[:5] - x[5:])))
    assert same_bits(op.adjoint_apply(y), np.concatenate([bty, -bty]))


def _linear_pdhg_proxes(solver, problem):
    """The ``_WarmStartedProxes`` a linear-PDHG solve builds, and its start
    pair, taken before the solve runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_run", lambda saddle, _, x0, y0, *rest: (saddle, x0, y0))
        return solver(problem)


def _problems_with_points():
    """Each worked problem, and the saddle problem of each linear-PDHG
    baseline, with an interior (x, y) of its geometries."""
    B, _, _ = gen_logreg_data(6, 4, 1)
    A, b, _ = gen_lasso_data(6, 9, 3, 0.1, 1)
    game = MatrixGameProblem(gen_game_data(5, 4, 1), 0.2)
    logreg = L1LogRegProblem(B, 3.0)
    quad = QuadraticSaddleProblem(np.random.default_rng(11).standard_normal((3, 4)), 0.5, 0.7)
    points = [(p, *p.default_init(seed=3)) for p in (game, LassoProblem(A, b, 0.05), logreg)]
    points.append((quad, np.linspace(-1.0, 1.0, 4), np.linspace(0.5, -0.5, 3)))
    ids = [case[0].problem_id for case in points]
    points.append(_linear_pdhg_proxes(solve_linear_pdhg_game, game))
    points.append(_linear_pdhg_proxes(solve_linear_pdhg_logreg, logreg))
    ids += ["linear-pdhg-game", "linear-pdhg-logreg"]
    return [pytest.param(*case, id=i) for case, i in zip(points, ids)]


@pytest.mark.parametrize("problem, x, y", _problems_with_points())
def test_proxes_leave_their_arguments_alone(problem, x, y):
    """Proxes work in place only on arrays they allocate: every argument
    keeps its bits and the result shares no memory with it."""
    aty, ax = problem.operator.adjoint_apply(y), problem.operator.apply(x)
    for prox, args in ((problem.primal_prox, (aty, x, 0.7)), (problem.dual_prox, (ax, y, 0.3))):
        before = [a.copy() for a in args[:2]]
        out = prox(*args)
        for arg, kept in zip(args[:2], before):
            assert same_bits(arg, kept)
            assert not np.shares_memory(out, arg)


class _NoOperator:
    """Stands in for ``problem.operator``: any product with it fails."""

    def apply(self, v):
        raise AssertionError("a prox applied the operator")

    adjoint_apply = apply


@pytest.mark.parametrize("problem, x, y", _problems_with_points())
def test_proxes_never_apply_the_operator(problem, x, y, monkeypatch):
    """The engine passes each prox its product with A, so a prox gives the
    same bits with the operator gone. A shallow copy keeps a linear-PDHG
    saddle's warm starts apart from the original's."""
    aty, ax = problem.operator.adjoint_apply(y), problem.operator.apply(x)
    ref = copy.copy(problem)
    want = (ref.primal_prox(aty, x, 0.7), ref.dual_prox(ax, y, 0.3))
    monkeypatch.setattr(problem, "operator", _NoOperator())
    got = (problem.primal_prox(aty, x, 0.7), problem.dual_prox(ax, y, 0.3))
    assert all(same_bits(g, w) for g, w in zip(got, want))


def _tiny_problem(kind):
    if kind == "logreg":
        return L1LogRegProblem(gen_logreg_data(8, 5, 0)[0], 2.0)
    if kind == "game":
        return MatrixGameProblem(gen_game_data(6, 5, 0), 0.5)
    A, b, _ = gen_lasso_data(8, 12, 3, 0.1, 0)
    return LassoProblem(A, b, 0.3)


# (apply, adjoint_apply) calls of a solve that reports k iterations: one
# product each way per iteration, unless listed here. PU predicts with a
# second pair; FISTA forms its returned dual point with one more apply.
_PRODUCTS = {"pu": lambda k: (2 * k, 2 * k), "fista": lambda k: (k + 1, k)}


@pytest.mark.parametrize("kind, name", list(bench.SOLVERS))
def test_every_solver_multiplies_through_its_operator(kind, name, monkeypatch):
    """Counting the operators' two products counts every product a solve
    takes with its matrix. ``norm_2_2`` returns the exact norm, so that its
    power iterations stay out of the count."""
    problem = _tiny_problem(kind)
    calls = {"apply": 0, "adjoint_apply": 0}
    for cls in (DenseOperator, ScaledConcat):
        for method in calls:
            def counted(self, v, _method=method, _original=getattr(cls, method)):
                calls[_method] += 1
                return _original(self, v)

            monkeypatch.setattr(cls, method, counted)
    monkeypatch.setattr(baselines, "norm_2_2", lambda op: float(np.linalg.norm(op.matrix, 2)))
    report = bench.call_solver(
        bench.SOLVERS[kind, name], problem, tol=1e-6, max_iters=40, seed=0, stop_on="both"
    )
    assert report.k > 1
    want = _PRODUCTS.get(name, lambda k: (k, k))(report.k)
    assert (calls["apply"], calls["adjoint_apply"]) == want


def _start_point(kind, name, problem):
    """The x a registered solver starts from."""
    if name == "fista":
        return np.zeros(problem.n)
    if kind == "logreg" and name != "nonlinear-pdhg":
        d = problem.B.shape[1]
        return np.full(d, 1.0 / d)
    x0 = problem.default_init(0)[0]
    # Every MWU iterate is the exp of its log, the start point too.
    return np.exp(np.log(x0)) if name in ("pu", "omwu") else x0


@pytest.mark.parametrize("kind, name", list(bench.SOLVERS))
class TestOneDriver:
    """Every registered solver iterates in ``engine._iterate``."""

    def test_zero_iterations_return_the_start_point(self, kind, name):
        problem = _tiny_problem(kind)
        report = bench.call_solver(
            bench.SOLVERS[kind, name], problem, tol=1e-6, max_iters=0, seed=0, stop_on="both"
        )
        assert (report.k, report.converged) == (0, False)
        assert report.residual_trace.shape == (0, 2)
        np.testing.assert_array_equal(report.x, _start_point(kind, name, problem))

    def test_solve_goes_through_the_driver(self, kind, name, monkeypatch):
        """The solver returns the very report the driver built."""
        results = []

        def recorded(*args, _original=engine._iterate):
            results.append(_original(*args))
            return results[-1]

        monkeypatch.setattr(engine, "_iterate", recorded)
        monkeypatch.setattr(baselines, "_iterate", recorded)
        report = bench.call_solver(
            bench.SOLVERS[kind, name], _tiny_problem(kind), tol=1e-6, max_iters=5, seed=0,
            stop_on="both",
        )
        assert len(results) == 1 and results[0] is report and report.k > 0


@pytest.mark.parametrize(
    "op",
    [DenseOperator(np.arange(12.0).reshape(3, 4)), ScaledConcat(np.arange(6.0).reshape(3, 2), 1.5)],
    ids=["dense", "scaled-concat"],
)
def test_operator_actions_leave_their_arguments_alone(op):
    x, y = np.linspace(-1.0, 1.0, op.cols), np.linspace(2.0, 3.0, op.rows)
    for action, arg in ((op.apply, x), (op.adjoint_apply, y)):
        kept = arg.copy()
        out = action(arg)
        assert same_bits(arg, kept)
        assert not np.shares_memory(out, arg)
