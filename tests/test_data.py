"""Seeded data generators: determinism, planted structure, distributions."""

import hashlib

import numpy as np
import pytest

from nlpdhg.baselines import fista_lasso
from nlpdhg.data import gen_game_data, gen_lasso_data, gen_logreg_data
from nlpdhg.problems.lasso import LassoProblem


class TestLogRegData:
    def test_one_percent_coefficients(self):
        _, v, _ = gen_logreg_data(20, 100, 0)
        assert np.count_nonzero(v) == 1  # ceil(0.01 * 100)
        assert v[v != 0][0] == 10.0
        _, v, _ = gen_logreg_data(20, 250, 0)
        assert np.count_nonzero(v) == 3  # ceil(2.5)

    def test_labels_are_signs_of_the_noisy_margin(self):
        """The labels equal the sign of the planted margin plus the third
        spawned stream's standard normal draws, exactly."""
        B, v, labels = gen_logreg_data(200, 50, 1)
        u = -labels[:, None] * B
        s_noise = np.random.SeedSequence(1).spawn(3)[2]
        xi = np.random.default_rng(s_noise).standard_normal(200)
        assert np.array_equal(labels, np.where(u @ v + xi >= 0, 1.0, -1.0))

    @pytest.mark.parametrize(
        "m, d, seed, digest",
        [
            (500, 2000, 0, "b1984b876eff85bc"),
            (10, 6, 4, "099d5a4b6919addf"),
            (7, 3, 1, "d748be3e6d9f4675"),
            (1, 1, 2, "d792ca5b2aabd39d"),
        ],
    )
    def test_matrix_bytes_pinned(self, m, d, seed, digest):
        """B's bytes, pinned by SHA-256 prefix, stay those of the fresh
        product -labels[:, None] * features."""
        B, _, _ = gen_logreg_data(m, d, seed)
        assert B.dtype == np.float64 and B.flags.c_contiguous
        assert hashlib.sha256(B.tobytes()).hexdigest()[:16] == digest

    def test_bitwise_determinism(self):
        B1, v1, l1 = gen_logreg_data(30, 40, 7)
        B2, v2, l2 = gen_logreg_data(30, 40, 7)
        assert np.array_equal(B1, B2) and np.array_equal(v1, v2) and np.array_equal(l1, l2)

    def test_label_balance_at_modest_size(self):
        _, _, labels = gen_logreg_data(50, 100, 0)
        assert 0 < np.sum(labels == 1.0) < 50

    def test_rows_are_negated_labeled_features(self):
        B, v, labels = gen_logreg_data(10, 5, 3)
        # Recover the features and regenerate B.
        u = -labels[:, None] * B
        np.testing.assert_array_equal(B, -labels[:, None] * u)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            gen_logreg_data(0, 5, 0)


class TestGameData:
    def test_range(self):
        A = gen_game_data(40, 60, 0)
        assert A.min() >= -1.0 and A.max() <= 1.0
        assert np.max(np.abs(A)) <= 1.0

    def test_mean_concentrates(self):
        """Empirical mean within the 3/sqrt(mn) CLT window at 200 x 200
        (uniform on [-1,1] has variance 1/3)."""
        A = gen_game_data(200, 200, 2)
        assert abs(A.mean()) < 3.0 / np.sqrt(200 * 200)

    def test_determinism(self):
        assert np.array_equal(gen_game_data(10, 10, 5), gen_game_data(10, 10, 5))

    @pytest.mark.parametrize(
        "m, n, seed, digest",
        [(100, 100, 0, "a22111a4aacaf29e"), (6, 5, 1, "7a9f0827d9be1d34")],
    )
    def test_payoff_bytes_pinned(self, m, n, seed, digest):
        """The payoff's bytes, pinned by SHA-256 prefix, stay those of
        ``uniform(-1, 1)`` on the seed's first child stream."""
        A = gen_game_data(m, n, seed)
        assert A.dtype == np.float64 and A.flags.c_contiguous
        assert hashlib.sha256(A.tobytes()).hexdigest()[:16] == digest


class TestLassoData:
    def test_zero_sparsity_is_pure_noise(self):
        A, b, x = gen_lasso_data(15, 10, 0, 0.5, 0)
        assert np.all(x == 0.0)
        assert np.linalg.norm(b) > 0  # noise only

    def test_sparsity_and_signs(self):
        _, _, x = gen_lasso_data(15, 30, 6, 0.1, 1)
        assert np.count_nonzero(x) == 6
        assert set(np.unique(x[x != 0])) <= {-1.0, 1.0}

    def test_determinism(self):
        a = gen_lasso_data(8, 12, 3, 0.2, 9)
        b = gen_lasso_data(8, 12, 3, 0.2, 9)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    @pytest.mark.parametrize(
        "m, n, sparsity, seed, digests",
        [
            (50, 250, 10, 0, ("b4ade1b6f51556dd", "bf4d1c147c4f4f32", "a9e669c7700d2202")),
            (12, 20, 3, 3, ("85ccaed1d880cae6", "dfd683c8def525fb", "751ac58b0c19b878")),
        ],
    )
    def test_bytes_pinned(self, m, n, sparsity, seed, digests):
        """A, b and x_true, pinned by SHA-256 prefix (noise 0.1)."""
        out = gen_lasso_data(m, n, sparsity, 0.1, seed)
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in out)
        assert got == digests

    def test_noiseless_support_recovery(self):
        """Overdetermined 50 x 10, no noise, tiny lam: FISTA recovers the
        planted support."""
        A, b, x_true = gen_lasso_data(50, 10, 3, 0.0, 4)
        p = LassoProblem(A, b, 1e-6)
        rep = fista_lasso(p, tol=1e-12, max_iters=200000)
        recovered = np.abs(rep.x) > 1e-3
        assert np.array_equal(recovered, x_true != 0)
        np.testing.assert_allclose(rep.x, x_true, atol=1e-3)
