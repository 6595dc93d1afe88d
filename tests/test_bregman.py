"""Geometry toolkit: divergence values, gradients, identities, and the
strong-convexity lower bounds that the solvers lean on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpdhg.bregman import (
    BinaryEntropyAverage,
    NegativeEntropy,
    Quadratic,
    three_point_check,
)
from nlpdhg.problems import (
    L1LogRegProblem,
    LassoProblem,
    MatrixGameProblem,
    QuadraticSaddleProblem,
)

# Frozen with 40-digit arithmetic: 0.5 log 2 + 0.5 log(2/3).
KL_HALF_QUARTER = 0.14384103622589045


def random_simplex(rng, n, floor=1e-12):
    x = rng.random(n) + floor
    return x / x.sum()


class TestDivergence:
    def test_quadratic_basic(self):
        g = Quadratic(1.0)
        assert g.divergence([1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)

    def test_negative_entropy_identity(self):
        g = NegativeEntropy(2)
        assert g.divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_negative_entropy_value(self):
        g = NegativeEntropy(2)
        got = g.divergence([0.5, 0.5], [0.25, 0.75])
        np.testing.assert_allclose(got, KL_HALF_QUARTER, rtol=1e-14)

    def test_boundary_first_argument_ok(self):
        # 0 log 0 extends continuously to 0.
        g = NegativeEntropy(3)
        val = g.divergence([0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
        assert np.isfinite(val) and val > 0

    def test_binary_entropy_matches_definition(self):
        m = 4
        g = BinaryEntropyAverage(m)
        rng = np.random.default_rng(0)
        y = rng.uniform(0.05, 0.95, m) / m
        yb = rng.uniform(0.05, 0.95, m) / m
        s, sb = m * y, m * yb
        expect = np.sum(
            s * np.log(s / sb) + (1 - s) * np.log((1 - s) / (1 - sb))
        ) / (4 * m**2)
        np.testing.assert_allclose(g.divergence(y, yb), expect, rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"x must have shape \(3,\), got \(2,\)"):
            NegativeEntropy(3).divergence([0.5, 0.5], [0.25, 0.25, 0.5])

    def test_boundary_second_argument_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            NegativeEntropy(2).divergence([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ValueError, match="boundary"):
            BinaryEntropyAverage(2).divergence([0.1, 0.1], [0.5, 0.25])

    def test_nan_inf_rejected(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Quadratic().divergence([np.nan, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="NaN or Inf"):
            NegativeEntropy(2).divergence([np.inf, 0.0], [0.5, 0.5])

    def test_two_evaluation_routes_agree(self):
        """Closed form vs phi(x) - phi(xb) - <grad phi(xb), x - xb>."""
        rng = np.random.default_rng(1)
        for geom, draw in [
            (NegativeEntropy(5), lambda: random_simplex(rng, 5)),
            (BinaryEntropyAverage(5), lambda: rng.uniform(0.05, 0.95, 5) / 5),
            (Quadratic(2.5), lambda: rng.standard_normal(5)),
        ]:
            for _ in range(50):
                x, xb = draw(), draw()
                direct = geom.divergence(x, xb)
                via_phi = geom.value(x) - geom.value(xb) - geom.gradient(xb) @ (x - xb)
                np.testing.assert_allclose(direct, via_phi, rtol=1e-12, atol=1e-12)


class TestGradient:
    def test_quadratic(self):
        np.testing.assert_allclose(Quadratic(2.0).gradient([1.0, -1.0]), [2.0, -2.0])

    def test_negative_entropy_log_cancellation(self):
        n = 4
        x = np.full(n, 1.0 / np.e)  # not a simplex point; validated below
        g = NegativeEntropy(n)
        with pytest.raises(ValueError):
            g.gradient(x)
        # On the simplex the formula is 1 + log x.
        x = random_simplex(np.random.default_rng(2), n)
        np.testing.assert_allclose(g.gradient(x), 1.0 + np.log(x))

    def test_binary_entropy_logit_lift(self):
        # m y = 0.5 everywhere makes the logit vanish.
        g = BinaryEntropyAverage(2, scale=1.0 / 8.0)
        np.testing.assert_allclose(g.gradient([0.25, 0.25]), [0.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize(
        "geom,point",
        [
            (Quadratic(0.7), np.array([0.4, -1.2, 3.0])),
            (NegativeEntropy(3), np.array([0.2, 0.3, 0.5])),
            (BinaryEntropyAverage(3), np.array([0.1, 0.2, 0.05])),
        ],
    )
    def test_finite_difference_consistency(self, geom, point):
        """Central differences of phi match the gradient to 1e-6 relative."""
        g = geom.gradient(point)
        h = 1e-6
        for j in range(point.shape[0]):
            e = np.zeros_like(point)
            e[j] = h
            fd = (geom.value(point + e) - geom.value(point - e)) / (2 * h)
            np.testing.assert_allclose(fd, g[j], rtol=1e-6, atol=1e-9)


class TestThreePoint:
    def test_quadratic_exact(self):
        g = Quadratic(1.3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, xh, xp = rng.standard_normal((3, 4))
            assert three_point_check(g, x, xh, xp) < 1e-12

    def test_entropy_identity_point(self):
        g = NegativeEntropy(3)
        u = np.full(3, 1.0 / 3.0)
        assert three_point_check(g, u, u, u) == 0.0

    def test_entropy_random_triples(self):
        g = NegativeEntropy(5)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, xh, xp = (random_simplex(rng, 5) for _ in range(3))
            assert three_point_check(g, x, xh, xp) < 1e-10


class TestStrongConvexity:
    def test_pinsker(self):
        """KL dominates half the squared l1 distance on simplex pairs."""
        rng = np.random.default_rng(5)
        for n in (2, 5, 50):
            g = NegativeEntropy(n)
            for _ in range(300):
                x, xb = random_simplex(rng, n), random_simplex(rng, n)
                assert g.divergence(x, xb) >= 0.5 * np.sum(np.abs(x - xb)) ** 2 - 1e-12

    def test_quadratic_exact_lower_bound(self):
        g = Quadratic(1.0)
        rng = np.random.default_rng(6)
        x, xb = rng.standard_normal((2, 7))
        np.testing.assert_allclose(g.divergence(x, xb), 0.5 * np.sum((x - xb) ** 2))

    def test_binary_entropy_euclidean_bound(self):
        """With scale 1/(4m) each binary entropy term has curvature >= 4m in
        m*y, so the divergence dominates half the squared l2 distance (the
        norm this geometry is paired with)."""
        rng = np.random.default_rng(7)
        for m in (1, 3, 10):
            g = BinaryEntropyAverage(m)
            for _ in range(300):
                y = rng.uniform(1e-4, 1 - 1e-4, m) / m
                yb = rng.uniform(1e-4, 1 - 1e-4, m) / m
                assert g.divergence(y, yb) >= 0.5 * np.sum((y - yb) ** 2) - 1e-15

    def test_binary_entropy_l1_bound_at_unaveraged_scale(self):
        # At scale 1/4 (no averaging) the l1 bound holds as well.
        rng = np.random.default_rng(8)
        m = 6
        g = BinaryEntropyAverage(m, scale=0.25)
        for _ in range(300):
            y = rng.uniform(1e-4, 1 - 1e-4, m) / m
            yb = rng.uniform(1e-4, 1 - 1e-4, m) / m
            assert g.divergence(y, yb) >= 0.5 * np.sum(np.abs(y - yb)) ** 2 - 1e-15


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_divergence_nonnegative_and_definite(n, seed):
    """Nonnegativity with equality exactly at identical points."""
    rng = np.random.default_rng(seed)
    g = NegativeEntropy(n)
    x, xb = random_simplex(rng, n), random_simplex(rng, n)
    d = g.divergence(x, xb)
    assert d >= 0.0
    assert g.divergence(xb, xb) == 0.0
    if np.max(np.abs(x - xb)) > 1e-6:
        assert d > 0.0


@given(st.floats(0.1, 10.0), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_quadratic_scale_linearity(scale, seed):
    rng = np.random.default_rng(seed)
    x, xb = rng.standard_normal((2, 3))
    np.testing.assert_allclose(
        Quadratic(scale).divergence(x, xb),
        scale * Quadratic(1.0).divergence(x, xb),
        rtol=1e-12,
    )


# Just inside the box (0, 1/2)^2 at its upper face: m y = 1 - 2**-53.
_TOP = (1.0 - 2.0**-53) / 2.0
_SIMPLEX, _BOX = NegativeEntropy(2), BinaryEntropyAverage(2)
_ON_BOX = "y is on the boundary of the box (0, 1/m)^m"
_OFF_BOX = "y lies outside the box [0, 1/m]^m"


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: Quadratic().value(np.zeros((2, 2))), "x must be a 1-d vector, got shape (2, 2)"),
        (lambda: Quadratic().value([1.0, np.nan]), "x contains NaN or Inf entries"),
        (lambda: NegativeEntropy(3).value([0.5, 0.5]), "x must have shape (3,), got (2,)"),
        (lambda: _SIMPLEX.gradient([1.0, 0.0]), "x is on or below the simplex boundary"),
        (lambda: _SIMPLEX.gradient([1.0, 1e-301]), "x is on or below the simplex boundary"),
        (lambda: _SIMPLEX.value([1.5, -0.5]), "x has negative entries"),
        (
            lambda: _SIMPLEX.value([0.5, 0.75]),
            "x does not sum to 1 (sum = 1.25)",
        ),
        (lambda: _BOX.value([0.25]), "y must have shape (2,), got (1,)"),
        (lambda: _BOX.gradient([0.0, 0.25]), _ON_BOX),
        (lambda: _BOX.gradient([0.25, 0.5]), _ON_BOX),
        (lambda: _BOX.gradient([0.25, 0.75]), _ON_BOX),
        (lambda: _BOX.value([-0.1, 0.25]), _OFF_BOX),
        (lambda: _BOX.value([0.25, 0.75]), _OFF_BOX),
    ],
    ids=[
        "not-a-vector",
        "not-finite",
        "simplex-dimension",
        "simplex-boundary-zero",
        "simplex-boundary-tiny",
        "simplex-negative",
        "simplex-sum",
        "box-dimension",
        "box-lower-face",
        "box-upper-face",
        "box-beyond-upper-face",
        "box-below",
        "box-above",
    ],
)
def test_every_domain_check_raises_its_message(check, message):
    with pytest.raises(ValueError) as exc:
        check()
    assert str(exc.value) == message


def test_box_interior_reaches_the_upper_face():
    """The last double below the face 1/m is still interior; the face is not."""
    assert 2.0 * _TOP == 1.0 - 2.0**-53
    _BOX.validate_point([0.25, _TOP], "y", interior=True)
    with pytest.raises(ValueError, match="boundary"):
        _BOX.validate_point([0.25, 0.5], "y", interior=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
def test_box_upper_test_is_the_one_minus_s_test(values):
    """For finite s, s.max() >= 1 says what min(1 - s) < 1e-300 says: 1 - s
    is exact for s in [0.5, 2], so it is <= 0 or at least 2**-53."""
    s = np.array(values)
    assert bool(s.max() >= 1.0) == bool(np.min(1.0 - s) < 1e-300)


@st.composite
def step_cases(draw):
    """A geometry at its default or a given scale, an interior x_bar, and
    g, coef and damping small enough that the step stays well inside the
    domain, where the gradients keep their digits."""
    kind = draw(st.sampled_from(["quadratic", "simplex", "box"]))
    n = draw(st.integers(1, 8))
    scale = draw(st.one_of(st.none(), st.floats(0.3, 20.0)))
    if kind == "quadratic":
        geom = Quadratic() if scale is None else Quadratic(scale)
        x_bar = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    else:
        w = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
        if kind == "simplex":
            geom, x_bar = NegativeEntropy(n), w / w.sum()
        else:
            geom = BinaryEntropyAverage(n) if scale is None else BinaryEntropyAverage(n, scale)
            x_bar = w / n
    g = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    coef, damping = draw(st.floats(-1.0, 1.0)), draw(st.floats(1.0, 50.0))
    return kind, geom, x_bar, g, coef, damping


@settings(max_examples=300, deadline=None)
@given(step_cases())
def test_each_step_is_the_bregman_prox_in_its_own_phi(case):
    """step(x_bar, g, coef, damping) is the argmin of (damping - 1) phi(x) -
    coef <g, x> + D(x, x_bar), so damping grad phi(x) = grad phi(x_bar) +
    coef g, up to a constant on the simplex. The box step once took coef
    in units of psi = phi / scale and missed this."""
    kind, geom, x_bar, g, coef, damping = case
    x = geom.step(x_bar, g, coef, damping)
    rhs = geom.gradient(x_bar) + coef * g
    miss = damping * geom.gradient(x) - rhs
    if kind == "simplex":
        miss -= miss.mean()
    assert np.abs(miss).max() <= 1e-9 * (1.0 + damping * np.abs(rhs).max())


def _worked_proxes():
    """(problem, primal linear term, dual linear term) for every problem
    whose proxes are geometry steps; the Lasso primal is soft thresholding,
    so it has no primal term. The proxes read no matrix."""
    rng = np.random.default_rng(0)
    m, n = 4, 3
    a, b = rng.standard_normal((m, n)), rng.standard_normal(m)
    c, d = rng.standard_normal(n), rng.standard_normal(m)
    return [
        (MatrixGameProblem(a, 0.3), 0.0, 0.0),
        (L1LogRegProblem(a, 1.5), 0.0, 0.0),
        (LassoProblem(a, b, 0.2), None, b),
        (QuadraticSaddleProblem(a, 0.7, 1.9, c, d), c, d),
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_each_worked_prox_is_its_step_with_the_schedule_gammas(seed, tau, sigma):
    """Each worked prox is geom.step(bar, g, +-step, 1 + gamma step), bit for
    bit, on the gamma_g and gamma_h_star that pick the problem's schedule."""
    rng = np.random.default_rng(seed)
    for p, c, d in _worked_proxes():
        m, n = p.operator.rows, p.operator.cols
        aty, ax = rng.standard_normal(n), rng.standard_normal(m)
        x_bar, y_bar = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
        if isinstance(p.geom_y, BinaryEntropyAverage):
            y_bar /= m
        pairs = [(p.dual_prox(ax, y_bar, sigma),
                  p.geom_y.step(y_bar, ax - d, sigma, 1.0 + p.gamma_h_star * sigma))]
        if c is not None:
            pairs.append((p.primal_prox(aty, x_bar, tau),
                          p.geom_x.step(x_bar, aty + c, -tau, 1.0 + p.gamma_g * tau)))
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
