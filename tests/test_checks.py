"""The package's one argument check: ``nlpdhg.checks`` and the calls routed
through it."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nlpdhg import data
from nlpdhg.bregman import NegativeEntropy, Quadratic
from nlpdhg.checks import check_count, check_finite, check_real
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.operators import ScaledConcat, norm_2_2
from nlpdhg.schedules import (
    AccDualSchedule,
    AccPrimalSchedule,
    ConstantSchedule,
    LinearRateSchedule,
    linear_rate_params,
    schedule_for,
)

_INTS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
)
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
)
# Refused by both scalar checks, whatever the bound.
_NOT_NUMBERS = st.sampled_from(
    [
        True, False, np.True_, np.False_,
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("-inf"),
        1 + 2j, complex(1.0, 0.0), np.complex128(3.0),
        "1", "2.5", None,
    ]
)


@given(
    st.one_of(_INTS, _FLOATS, _NOT_NUMBERS),
    st.booleans(),
    st.integers(0, 2),
    st.one_of(st.just(2.5), st.floats(allow_nan=False).map(np.float64)),
    arrays(st.sampled_from([np.float64, np.float32, np.int64, np.int8]), array_shapes(max_dims=2),
           elements={"allow_nan": False, "allow_infinity": False}),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_checks_accept_numbers_and_refuse_the_rest(
    value, positive, least, fraction, a, bad, draw
):
    """Python and numpy ints and floats pass ``check_real`` on the right side
    of its bound, and ints ``check_count``. Bools, NaN, infinities, complex
    numbers, strings and fractions are refused, each with its one message.
    ``check_finite`` hands back a float array (a float64 one as itself) and
    refuses a NaN, an infinity or a complex dtype."""
    number = not isinstance(value, (bool, np.bool_, complex, np.complexfloating, str))
    number = number and value is not None and math.isfinite(value)
    if number and (value > 0 if positive else value >= 0):
        check_real("v", value, positive)
    else:
        bound = "> 0" if positive else ">= 0"
        with pytest.raises(ValueError) as exc:
            check_real("v", value, positive)
        assert str(exc.value) == f"v must be a finite number {bound}, got {value!r}"

    integer = number and isinstance(value, (int, np.integer))
    if integer and value >= least:
        check_count("n", value, least)
    else:
        with pytest.raises(ValueError) as exc:
            check_count("n", value, least)
        assert str(exc.value) == f"n must be an integer >= {least}, got {value!r}"
    with pytest.raises(ValueError) as exc:
        check_count("n", fraction, least)
    assert str(exc.value) == f"n must be an integer >= {least}, got {fraction!r}"

    got = check_finite(a, "a")
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, a)
    if a.dtype == np.float64:
        assert got is a
    if a.size:
        b = a.astype(float)
        b.flat[draw.draw(st.integers(0, a.size - 1))] = bad
        with pytest.raises(ValueError) as exc:
            check_finite(b, "b")
        assert str(exc.value) == "b contains NaN or Inf entries"
    with pytest.raises(ValueError) as exc:
        check_finite(a + 0j, "c")
    assert str(exc.value) == "c must be real, got complex entries"


class _Trap:
    """Stands in for an operator or a matrix: any use of it is work."""

    def __getattr__(self, name):
        raise AssertionError(f"work before the check: .{name}")

    def __array__(self, *args, **kwargs):
        raise AssertionError("work before the check: array conversion")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: linear_rate_params(1.0, 1.0, math.inf),
         "op_norm must be a finite number > 0, got inf"),
        (lambda t: AccDualSchedule(math.inf, 1.0),
         "gamma_h_star must be a finite number > 0, got inf"),
        (lambda t: AccPrimalSchedule(1.0, 1.0, sigma0=math.inf),
         "sigma0 must be a finite number > 0, got inf"),
        (lambda t: LinearRateSchedule(0.5, math.inf, 1.0),
         "tau must be a finite number > 0, got inf"),
        (lambda t: norm_2_2(t, max_iters=2.5), "max_iters must be an integer >= 1, got 2.5"),
        (lambda t: gen_game_data(2.5, 3, 0), "m must be an integer >= 1, got 2.5"),
        (lambda t: gen_lasso_data(5, 8, 2.5, 0.1, 0),
         "sparsity must be an integer >= 0, got 2.5"),
        (lambda t: gen_logreg_data(True, 3, 0), "m must be an integer >= 1, got True"),
        (lambda t: ScaledConcat(t, True), "scale must be a finite number > 0, got True"),
        (lambda t: Quadratic(True), "scale must be a finite number > 0, got True"),
        (lambda t: NegativeEntropy(True), "dim must be an integer >= 1, got True"),
        (lambda t: linear_rate_params(1.0, 1.0, 1e-200),
         "op_norm**2 must be a finite number > 0, got 0.0"),
        (lambda t: AccDualSchedule(1.0, 1e-200), "op_norm**2 must be a finite number > 0, got 0.0"),
        (lambda t: AccPrimalSchedule(1.0, 1e200), "op_norm**2 must be a finite number > 0, got inf"),
        (lambda t: ConstantSchedule(0.5, 0.5, 1e200),
         "op_norm**2 must be a finite number >= 0, got inf"),
        (lambda t: ConstantSchedule(0.5, 0.5, -1.0), "op_norm must be a finite number >= 0, got -1.0"),
        (lambda t: ConstantSchedule(0.5, 0.5, math.nan),
         "op_norm must be a finite number >= 0, got nan"),
        (lambda t: AccDualSchedule(1.0, 1.0, tau0=math.inf),
         "tau0 must be a finite number > 0, got inf"),
        (lambda t: schedule_for(math.nan, 1.0, 1.0), "gamma_g must be a finite number >= 0, got nan"),
        (lambda t: schedule_for(-1.0, 1.0, 1.0), "gamma_g must be a finite number >= 0, got -1.0"),
        (lambda t: schedule_for(1.0, math.nan, 1.0),
         "gamma_h_star must be a finite number >= 0, got nan"),
        (lambda t: AccPrimalSchedule(1e10, 1e-150, sigma0=1.0),
         "gamma_g*tau0 must be a finite number >= 0, got inf"),
        (lambda t: AccDualSchedule(1e10, 1e-150, tau0=1.0),
         "gamma_h_star*sigma0 must be a finite number >= 0, got inf"),
        (lambda t: linear_rate_params(1e-20, 1e-20, 1.0),
         "theta must lie in (0, 1), but gamma_g*gamma_h_star/op_norm**2 = 1e-40 "
         "rounds it to 1.0"),
    ],
    ids=[
        "linear-rate-inf-norm", "acc-dual-inf-gamma", "acc-primal-inf-sigma0",
        "linear-rate-inf-tau", "norm-2-2-fractional-cap", "game-fractional-m",
        "lasso-fractional-sparsity", "logreg-bool-m", "scaled-concat-bool-scale",
        "quadratic-bool-scale", "entropy-bool-dim", "linear-rate-tiny-norm",
        "acc-dual-tiny-norm", "acc-primal-huge-norm", "constant-huge-norm",
        "constant-negative-norm", "constant-nan-norm", "acc-dual-inf-tau0",
        "schedule-for-nan-gamma-g", "schedule-for-negative-gamma-g",
        "schedule-for-nan-gamma-h-star", "acc-primal-overflowing-gamma-tau0",
        "acc-dual-overflowing-gamma-sigma0", "linear-rate-theta-rounds-to-one",
    ],
)
def test_bad_number_refused_before_any_work(monkeypatch, call, message):
    """Each call names its argument in the shared wording, before it touches
    an operator or matrix and before a generator builds a stream."""
    monkeypatch.setattr(data, "_streams", lambda seed, k: pytest.fail("a stream was built"))
    with pytest.raises(ValueError) as exc:
        call(_Trap())
    assert str(exc.value) == message


_EXTREME = st.floats(min_value=5e-324, max_value=1.7e308)


@given(_EXTREME, _EXTREME, _EXTREME, _EXTREME)
def test_schedules_at_extreme_finite_inputs(gamma_g, gamma_h_star, op_norm, step0):
    """Positive finite inputs build finite positive steps or are refused in
    the shared wording: a square or a quotient that over- or underflows is
    no ``ZeroDivisionError`` or ``OverflowError``. A relation that fails
    keeps its own wording."""
    builds = [
        lambda: LinearRateSchedule(*linear_rate_params(gamma_g, gamma_h_star, op_norm)),
        lambda: AccPrimalSchedule(gamma_g, op_norm),
        lambda: AccPrimalSchedule(gamma_g, op_norm, sigma0=step0),
        lambda: AccDualSchedule(gamma_h_star, op_norm),
        lambda: AccDualSchedule(gamma_h_star, op_norm, tau0=step0),
        lambda: ConstantSchedule(step0, gamma_h_star, op_norm),
        lambda: schedule_for(gamma_g, gamma_h_star, op_norm),
    ]
    for build in builds:
        try:
            schedule = build()
        except ValueError as exc:
            words = ("must be a finite number", "must lie in (0, 1)", "must be strictly below 1")
            assert any(w in str(exc) for w in words), str(exc)
            continue
        for step in (schedule.tau, schedule.sigma):
            assert math.isfinite(step) and step > 0
        assert 0.0 <= schedule.theta <= 1.0
