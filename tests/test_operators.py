"""Operators: apply/adjoint correctness, the norm menu, and CSV fixtures."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nlpdhg.operators import (
    DenseOperator,
    PowerIterationError,
    ScaledConcat,
    load_matrix_csv,
    norm_1_2,
    norm_1_inf,
    norm_2_2,
    save_matrix_csv,
)
from nlpdhg.problems.lasso import LassoProblem
from nlpdhg.problems.logreg import L1LogRegProblem


class TestApply:
    def test_identity(self):
        op = DenseOperator(np.eye(3))
        np.testing.assert_allclose(op.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_scaled_concat_picks_signed_column(self):
        op = ScaledConcat(np.eye(2), 2.0)
        np.testing.assert_allclose(op.apply([1.0, 0.0, 0.0, 0.0]), [2.0, 0.0])
        np.testing.assert_allclose(op.apply([0.0, 0.0, 1.0, 0.0]), [-2.0, 0.0])

    def test_adjoint_hand_value(self):
        op = DenseOperator([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(op.adjoint_apply([1.0, 1.0]), [4.0, 6.0])

    def test_dimension_mismatch(self):
        op = DenseOperator(np.ones((2, 3)))
        with pytest.raises(ValueError, match="shape"):
            op.apply([1.0, 2.0])
        with pytest.raises(ValueError, match="shape"):
            op.adjoint_apply([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", ["complex", "2-d", "length"])
    @pytest.mark.parametrize(
        "method, name, size", [("apply", "x", "cols"), ("adjoint_apply", "y", "rows")]
    )
    @pytest.mark.parametrize(
        "op",
        [DenseOperator(np.ones((2, 3))), ScaledConcat(np.ones((2, 3)), 0.5)],
        ids=["dense", "scaled-concat"],
    )
    def test_products_refuse_a_bad_vector_in_one_wording(self, op, method, name, size, bad):
        """No product cuts a complex vector to its real part: a float cast
        made ScaledConcat(eye(2), 1).adjoint_apply([1+1j, 0]) read
        [1, 0, -1, -0] with only a ComplexWarning."""
        n = getattr(op, size)
        value, message = {
            "complex": (np.full(n, 1 + 1j), f"{name} must be real, got complex entries"),
            "2-d": (np.ones((n, 1)), f"{name} must have shape ({n},), got ({n}, 1)"),
            "length": (np.ones(n + 1), f"{name} must have shape ({n},), got ({n + 1},)"),
        }[bad]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                getattr(op, method)(value)
        assert str(exc.value) == message

    def test_scaled_concat_equals_materialized(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 3))
        lam = 1.7
        op = ScaledConcat(B, lam)
        full = lam * np.hstack([B, -B])
        for _ in range(20):
            x = rng.standard_normal(6)
            y = rng.standard_normal(4)
            np.testing.assert_allclose(op.apply(x), full @ x, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(op.adjoint_apply(y), full.T @ y, rtol=1e-13, atol=1e-13)

    def test_adjoint_pairing(self):
        """<y, A x> == <A^T y, x> on random probes, both operator kinds."""
        rng = np.random.default_rng(1)
        ops = [
            DenseOperator(rng.standard_normal((5, 7))),
            ScaledConcat(rng.standard_normal((5, 4)), 0.9),
        ]
        for op in ops:
            for _ in range(30):
                x = rng.standard_normal(op.cols)
                y = rng.standard_normal(op.rows)
                lhs = y @ op.apply(x)
                rhs = op.adjoint_apply(y) @ x
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestNorms:
    def test_norm_1_2_single_column(self):
        assert norm_1_2(DenseOperator([[3.0, 0.0], [4.0, 0.0]])) == 5.0

    def test_norm_1_2_identity(self):
        assert norm_1_2(DenseOperator(np.eye(6))) == 1.0

    def test_norm_1_2_scaled_concat(self):
        got = norm_1_2(ScaledConcat(np.array([[1.0], [1.0]]), 3.0))
        np.testing.assert_allclose(got, 4.242640687119285, rtol=1e-15)

    def test_norm_1_inf(self):
        assert norm_1_inf(DenseOperator([[-1.0, 2.0], [3.0, -4.0]])) == 4.0
        assert norm_1_inf(DenseOperator(np.zeros((3, 3)))) == 0.0

    def test_norm_1_inf_sign_matrix(self):
        rng = np.random.default_rng(2)
        A = rng.choice([-1.0, 1.0], size=(6, 8))
        # Exhaustive scan oracle.
        assert norm_1_inf(DenseOperator(A)) == max(abs(v) for v in A.ravel())

    def test_norm_2_2_diagonal(self):
        np.testing.assert_allclose(norm_2_2(DenseOperator(np.diag([3.0, 1.0]))), 3.0, rtol=1e-9)

    def test_norm_2_2_nilpotent_shift(self):
        # Singular values of [[0,1],[0,0]] are {1, 0}.
        np.testing.assert_allclose(
            norm_2_2(DenseOperator([[0.0, 1.0], [0.0, 0.0]])), 1.0, rtol=1e-9
        )

    def test_norm_2_2_identity(self):
        np.testing.assert_allclose(norm_2_2(DenseOperator(np.eye(4))), 1.0, rtol=1e-12)

    def test_norm_2_2_matches_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((8, 5))
            np.testing.assert_allclose(
                norm_2_2(DenseOperator(A)), np.linalg.norm(A, 2), rtol=1e-7
            )

    def test_norm_2_2_nonconvergence_carries_estimate(self):
        A = np.random.default_rng(4).standard_normal((30, 30))
        with pytest.raises(PowerIterationError) as exc:
            norm_2_2(DenseOperator(A), max_iters=2)
        assert exc.value.last_estimate > 0

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_norm_2_2_rejects_max_iters_below_one(self, max_iters):
        with pytest.raises(ValueError, match="^max_iters must be an integer >= 1, got "):
            norm_2_2(DenseOperator(np.eye(3)), max_iters=max_iters)

    def test_norm_2_2_single_iteration_cap(self):
        with pytest.raises(PowerIterationError) as exc:
            norm_2_2(DenseOperator(np.diag([3.0, 1.0])), max_iters=1)
        assert exc.value.last_estimate > 0

    _B = np.random.default_rng(6).standard_normal((5, 3))
    # Two blocks, norms sqrt 8 and sqrt 18: the largest column's basis
    # vector lies in the first, orthogonal to the top right singular vector.
    _BLOCKS = np.zeros((2, 10))
    _BLOCKS[0, :2], _BLOCKS[1, 2:6], _BLOCKS[1, 6:] = (2.0, -2.0), 1.5, -1.5

    @pytest.mark.parametrize("op, want", [
        (DenseOperator([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]), np.sqrt(3.0)),
        (DenseOperator([[1.0, -1.0], [2.0, -2.0]]), np.sqrt(10.0)),
        (ScaledConcat(_B, 2.5), np.linalg.norm(2.5 * np.hstack([_B, -_B]), 2)),
        (DenseOperator(_BLOCKS), np.sqrt(18.0)),
        (DenseOperator([[0.0, 1e-170, -1e-170], [0.0, 2e-170, -2e-170]]), np.sqrt(10.0) * 1e-170),
    ], ids=["rock-paper-scissors", "rank-one", "scaled-concat", "blocks", "tiny"])
    def test_norm_2_2_restarts_when_the_ones_vector_is_in_the_nullspace(self, op, want):
        """A 1 = 0 puts the all-ones start in the nullspace of A^T A, as for
        every scale (B | -B); the restart finds the norm. A restart from the
        largest column's basis vector read sqrt 8 on the blocks, and at the
        tiny entries, whose squared column norms underflow, did not converge."""
        assert not np.any(op.apply(np.ones(op.cols)))
        np.testing.assert_allclose(norm_2_2(op), want, rtol=1e-7)

    def test_norm_2_2_zero_operator(self, monkeypatch):
        """Settled before the power iteration takes a step."""
        for op in (DenseOperator(np.zeros((3, 4))), ScaledConcat(np.zeros((3, 4)), 1.0)):
            monkeypatch.setattr(op, "apply", lambda x: pytest.fail("iterated"))
            assert norm_2_2(op) == 0.0

    @pytest.mark.parametrize("s", [1e-300, 1e-170, 1e-160, 1e-30, 1e30, 1e150, 1e160, 1e200, 1e300])
    def test_norm_2_2_at_every_magnitude(self, s):
        """The all-s matrix has norm 3s, (s B | -s B) sqrt(2) 3s. Unscaled, the
        power iteration read inf at 1e-160, 0.0 at 1e-170 and 1e150, and did
        not converge at 1e160 and above."""
        a = np.full((3, 3), s)
        np.testing.assert_allclose(norm_2_2(DenseOperator(a)), 3 * s, rtol=1e-12)
        np.testing.assert_allclose(
            norm_2_2(ScaledConcat(a, 1.0)), np.sqrt(2.0) * 3 * s, rtol=1e-12
        )

    @pytest.mark.parametrize("k", [-900, -400, -101, 101, 400, 900])
    @pytest.mark.parametrize("seed", range(4))
    def test_norm_2_2_scales_by_powers_of_two_to_the_bit(self, seed, k):
        """The scaled iteration far from 1 returns 2^k times the plain one's
        estimate near 1, bit for bit, also through a restart and the cap."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 5))
        if seed % 2:
            a -= a.mean(axis=1, keepdims=True)  # A 1 = 0: the restart

        def estimate(matrix, cap):
            try:
                return norm_2_2(DenseOperator(matrix), cap)
            except PowerIterationError as exc:
                return exc.last_estimate

        for cap in (5000, 3):
            assert same_bits(estimate(np.ldexp(a, k), cap), np.ldexp(estimate(a, cap), k))

    @pytest.mark.parametrize("k", [-600, 600])
    @pytest.mark.parametrize(
        "norm",
        [
            lambda a: LassoProblem(a, np.ones(a.shape[0]), 1.0).op_norm,
            lambda a: L1LogRegProblem(a, 0.7).op_norm,
            lambda a: norm_1_2(DenseOperator(a)),
        ],
        ids=["lasso-rows", "logreg-columns", "dense-columns"],
    )
    def test_cheap_norms_scale_by_powers_of_two_to_the_bit(self, norm, k):
        """2^k A has 2^k times the norm of A, bit for bit. Unscaled, the
        squared entries underflowed at 2^-600 ("operator norm 0 (all zeros)")
        and overflowed at 2^600 (inf), as they did for the all-s matrix at
        s = 1e-170 and 1e160."""
        a = np.random.default_rng(3).standard_normal((6, 4))
        assert same_bits(norm(np.ldexp(a, k)), np.ldexp(norm(a), k))
        for s in (1e-170, 1e160):
            want = s * norm(np.ones((3, 3)))
            np.testing.assert_allclose(norm(np.full((3, 3), s)), want, rtol=1e-15)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_logreg_norm_scales_with_the_radius_to_the_bit(self, k):
        """2^k lam has 2^k times the norm, bit for bit: the scale is scaled
        apart from B."""
        b = np.random.default_rng(4).standard_normal((6, 4))
        got = L1LogRegProblem(b, np.ldexp(0.7, k)).op_norm
        assert same_bits(got, np.ldexp(L1LogRegProblem(b, 0.7).op_norm, k))

    @pytest.mark.parametrize(
        "s, lam", [(1.0, 1e-170), (1.0, 1e160), (1e170, 1e-170)], ids=["tiny-lam", "huge-lam", "huge-b"]
    )
    def test_logreg_norm_for_any_radius(self, s, lam):
        """The norm of lam (B | -B) for B all s is s lam sqrt 3. Squaring lam
        apart gave nan with a RuntimeWarning at lam = 1e-170 and at B = 1e170
        (0 * inf), and an OverflowError at lam = 1e160."""
        got = L1LogRegProblem(np.full((3, 3), s), lam).op_norm
        np.testing.assert_allclose(got, s * lam * np.sqrt(3.0), rtol=1e-15)

    def test_norm_2_2_restart_counts_against_the_cap(self):
        rps = DenseOperator([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(PowerIterationError) as exc:
            norm_2_2(rps, max_iters=1)
        assert exc.value.last_estimate == 0.0
        # One step from the restart's fixed Gaussian vector v reads ||A v||.
        with pytest.raises(PowerIterationError) as exc:
            norm_2_2(rps, max_iters=2)
        np.testing.assert_allclose(exc.value.last_estimate, 1.4468356188428628, rtol=1e-15)

    def test_norm_equivalence_chain(self):
        """norm_1_2 <= norm_2_2 <= sqrt(n) * norm_1_2 on random matrices."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.standard_normal((6, 9))
            op = DenseOperator(A)
            lo, mid = norm_1_2(op), np.linalg.norm(A, 2)
            assert lo <= mid * (1 + 1e-12)
            assert mid <= np.sqrt(A.shape[1]) * lo * (1 + 1e-12)

    def test_empty_operator_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DenseOperator(np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [np.zeros((0, 3)), np.ones(3), np.ones((2, 2, 2)), 1.0])
    @pytest.mark.parametrize(
        "build, name",
        [(DenseOperator, "matrix"), (lambda a: ScaledConcat(a, 1.0), "base")],
        ids=["dense", "scaled-concat"],
    )
    def test_both_operators_refuse_a_non_matrix_in_one_wording(self, build, name, value):
        with pytest.raises(ValueError) as exc:
            build(value)
        shape = np.shape(value)
        assert str(exc.value) == f"{name} must be a non-empty 2-d matrix, got shape {shape}"

    @pytest.mark.parametrize(
        "build, name",
        [(DenseOperator, "matrix"), (lambda a: ScaledConcat(a, 1.0), "base")],
        ids=["dense", "scaled-concat"],
    )
    def test_complex_matrix_rejected(self, build, name):
        """A float cast would keep only the real part, [[1, 3]]."""
        with pytest.raises(ValueError) as exc:
            build(np.array([[1 + 2j, 3.0]]))
        assert str(exc.value) == f"{name} must be real, got complex entries"


# Finite entries of both signs, with signed zeros and +-1e308 drawn often.
matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, max_side=12),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1e308, -1e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@given(matrices, st.floats(1e-3, 1e3))
@example(np.full((3, 2), -0.0), 2.0)
@example(np.array([[0.0, -0.0], [-0.0, 0.0]]), 1.0)
@example(np.array([[1e308, -1e308]]), 0.5)
@settings(max_examples=300, deadline=None)
def test_max_abs_entry_is_the_abs_scan(a, s):
    """The max|A_ij| kept from the validation scan has the abs scan's bits."""
    assert same_bits(DenseOperator(a).max_abs_entry(), np.max(np.abs(a)))
    assert same_bits(ScaledConcat(a, s).max_abs_entry(), s * float(np.max(np.abs(a))))


class TestCauchySchwarzProbe:
    """|<dy, A dx>| <= ||A|| (alpha/2 ||dx||^2 + 1/(2 alpha) ||dy||^2)
    in each matching norm pairing."""

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_pairings(self, alpha):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((5, 7))
        op = DenseOperator(A)
        pairings = [
            (norm_1_2(op), lambda v: np.sum(np.abs(v)), lambda w: np.linalg.norm(w)),
            (norm_1_inf(op), lambda v: np.sum(np.abs(v)), lambda w: np.sum(np.abs(w))),
            (np.linalg.norm(A, 2), np.linalg.norm, np.linalg.norm),
        ]
        for nrm, norm_x, norm_y in pairings:
            for _ in range(40):
                dx = rng.standard_normal(7)
                dy = rng.standard_normal(5)
                lhs = abs(dy @ op.apply(dx))
                rhs = nrm * (0.5 * alpha * norm_x(dx) ** 2 + 0.5 / alpha * norm_y(dy) ** 2)
                assert lhs <= rhs * (1 + 1e-12)


def _repr_csv(a):
    """The CSV text as a hand-written writer put it: repr of each entry."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in np.atleast_2d(a))


def test_csv_text_is_the_shortest_repr_of_each_entry(tmp_path):
    rng = np.random.default_rng(8)
    values = np.concatenate([
        rng.integers(0, 2**64, size=2000, dtype=np.uint64).view(np.float64),
        rng.standard_normal(2000) * 10.0 ** rng.uniform(-320, 307, 2000),
        [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, np.inf, -np.inf, np.nan, 1e16, 1e-5],
    ])
    path = tmp_path / "mat.csv"
    for a in (values.reshape(-1, 1), values.reshape(1, -1), values.reshape(10, -1), [1, 2], 3.5):
        save_matrix_csv(path, a)
        assert path.read_text() == _repr_csv(a)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 6))
    path = tmp_path / "mat.csv"
    save_matrix_csv(path, A)
    np.testing.assert_array_equal(load_matrix_csv(path), A)
