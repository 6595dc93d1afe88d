"""Memory held on the desk-scale path, measured with ``tracemalloc`` (numpy
reports its data buffers to it): logreg generation and set-up hold one copy
of the matrix, and a solve's residual trace costs 16 bytes per iteration.
The scan-free finiteness checks that keep set-up cheap still reject every
non-finite matrix."""

import tracemalloc

import numpy as np
import pytest

from nlpdhg.baselines import fista_lasso, solve_game_pu
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.engine import StoppingRule, run
from nlpdhg.operators import DenseOperator, ScaledConcat
from nlpdhg.problems import L1LogRegProblem, LassoProblem, MatrixGameProblem
from nlpdhg.problems.quadratic import QuadraticSaddleProblem
from nlpdhg.schedules import ConstantSchedule

M, D = 500, 2000
MATRIX_BYTES = 8 * M * D


def traced(fn):
    """Call ``fn`` under tracemalloc; return (its result, peak bytes allocated
    during the call, bytes it left allocated)."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return out, peak - base, current - base


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    # First calls import and cache numpy internals; keep those out of the counts.
    gen_logreg_data(2, 3, 0)
    L1LogRegProblem(gen_logreg_data(2, 3, 0)[0], 1.0)
    DenseOperator(np.ones((2, 2)))


@pytest.mark.parametrize("seed", [0, 1])
def test_logreg_generation_holds_one_matrix(seed):
    (B, _, _), peak, _ = traced(lambda: gen_logreg_data(M, D, seed))
    assert B.nbytes == MATRIX_BYTES
    assert peak <= 1.1 * MATRIX_BYTES


def test_problem_setup_copies_no_matrix():
    """Validation and the column norms read the matrix without allocating a
    matrix-sized temporary."""
    B, _, _ = gen_logreg_data(M, D, 0)

    def build():
        L1LogRegProblem(B, 5.0)
        DenseOperator(B)

    _, peak, _ = traced(build)
    assert peak < 0.05 * MATRIX_BYTES


def test_game_setup_copies_no_matrix():
    """The game's norm max|A_ij| comes from the validation scan, so set-up
    makes no abs copy of the payoff."""
    payoff = gen_game_data(M, D, 0)
    _, peak, _ = traced(lambda: MatrixGameProblem(payoff, 0.1))
    assert peak < 0.05 * MATRIX_BYTES


def _quadratic_run(iters):
    prob = QuadraticSaddleProblem(np.array([[1.0]]), gamma_g=1.0, gamma_h_star=1.0)
    sched = ConstantSchedule(0.5, 0.5, prob.op_norm)
    return run(prob, sched, np.array([1.0]), np.array([1.0]), StoppingRule(max_iters=iters))


def test_run_trace_costs_16_bytes_per_iteration():
    _, _, kept_at_one = traced(lambda: _quadratic_run(1))
    for iters in (1000, 4000, 5000):
        rep, _, kept = traced(lambda: _quadratic_run(iters))
        trace = rep.residual_trace
        assert trace.shape == (iters, 2) and trace.dtype == np.float64
        assert trace.nbytes == 16 * iters and not trace.flags.owndata
        # 16 bytes per iteration plus array('d')'s 1/16 growth headroom.
        assert kept - kept_at_one <= 17 * iters + 1024


def test_every_loop_reports_a_pair_array():
    A, b, _ = gen_lasso_data(8, 12, 2, 0.1, 0)
    game = MatrixGameProblem(gen_game_data(4, 5, 0), 0.5)
    for rep in (fista_lasso(LassoProblem(A, b, 0.1)), solve_game_pu(game), _quadratic_run(3)):
        trace = rep.residual_trace
        assert trace.shape == (rep.k, 2) and trace.dtype == np.float64
        assert trace[:, 0].tolist() == list(range(1, rep.k + 1))


NON_FINITE = {
    "nan": [[1.0, np.nan], [0.0, 2.0]],
    "inf": [[1.0, np.inf], [0.0, 2.0]],
    "inf-pair": [[np.inf, -np.inf], [0.0, 2.0]],
    "-inf": [[1.0, 2.0], [0.0, -np.inf]],
    "lone-nan": [[np.nan]],
}


@pytest.mark.parametrize("entries", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_validation_rejects_non_finite_entries(entries):
    a = np.array(entries)
    with pytest.raises(ValueError, match="NaN or Inf"):
        DenseOperator(a)
    with pytest.raises(ValueError, match="NaN or Inf"):
        ScaledConcat(a, 1.0)


def test_validation_accepts_entries_whose_sum_overflows():
    a = np.full((3, 4), 1e308)
    with np.errstate(over="ignore"):
        assert not np.isfinite(a.sum())
    assert DenseOperator(a).max_abs_entry() == 1e308
    assert ScaledConcat(a, 0.5).max_abs_entry() == 0.5e308

