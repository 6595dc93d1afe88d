"""Harness: spec parsing, row generation, CSV round-trips, determinism."""

import hashlib
import inspect
import json

import numpy as np
import pytest

from nlpdhg import baselines
from nlpdhg.bench import (
    CSV_HEADER,
    SOLVERS,
    ExperimentSpec,
    ResultRow,
    _error_text,
    call_solver,
    rows_from_csv,
    rows_to_csv,
    run_experiment,
)


def small_spec(**overrides):
    base = dict(
        kind="lasso",
        m=10,
        n=20,
        lam=0.2,
        seed=3,
        solvers=["nonlinear-pdhg", "fista"],
        tol=1e-5,
        max_iters=20000,
        reps=2,
        sparsity=3,
        noise=0.1,
        record_timing=False,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_json_round_trip(self):
        spec = small_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(kind="svm", m=2, n=2, lam=1.0, seed=0)

    @pytest.mark.parametrize("solvers", ["pu", ["pu", 3], {"pu": 1}])
    def test_solvers_must_be_a_list_of_names(self, solvers):
        with pytest.raises(ValueError, match="solvers must be a list of solver names"):
            small_spec(solvers=solvers)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tol", -1),
            ("tol", float("nan")),
            ("tol", float("inf")),
            ("max_iters", -5),
            ("max_iters", 0),
            ("reps", 0),
            ("m", 0),
            ("n", 2.0),
            ("seed", 1.5),
            ("seed", -1),
            ("sparsity", -1),
            ("lam", -1),
            ("lam", 0.0),
            ("lam", float("nan")),
            ("lam", True),
            ("noise", -0.1),
            ("noise", float("inf")),
            ("noise", False),
            ("record_timing", "no"),
        ],
    )
    def test_bad_numbers_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            small_spec(**{field: value})

    def test_lasso_sparsity_above_n_rejected(self):
        """gen_lasso_data would refuse it on every row; the spec refuses it
        before any work. Other kinds ignore the sparsity."""
        with pytest.raises(ValueError, match=r"^sparsity must lie in \[0, 20\], got 21$"):
            small_spec(sparsity=21)
        small_spec(kind="game", sparsity=21)

    def test_integer_lam_and_zero_noise_accepted(self):
        spec = small_spec(lam=1, noise=0, sparsity=0, seed=0)
        assert (spec.lam, spec.noise) == (1, 0)

    def test_default_solver_list(self):
        spec = ExperimentSpec(kind="game", m=4, n=4, lam=0.5, seed=0)
        assert "nonlinear-pdhg" in spec.solvers and "pu" in spec.solvers


class TestRows:
    def test_csv_round_trip(self):
        error = _error_text(ValueError("inner solve stalled, residual\n0.5"))
        assert error == "ValueError: inner solve stalled; residual 0.5"
        rows = [
            ResultRow("nonlinear-pdhg", "regular", 10, 20, 0.2, 3, 145, 12.5, 3.2e-6, True),
            ResultRow("fista", "regular", 10, 20, 0.2, 4, 0, 0.0, 0.1259127345, False),
            ResultRow("pu", "regular", 10, 20, 0.2, 5, 0, 0.0, 0.5, False, error),
        ]
        assert rows_from_csv(rows_to_csv(rows)) == rows

    def test_header_guard(self):
        with pytest.raises(ValueError, match="header"):
            rows_from_csv("bogus\n1,2,3\n")

    def test_header_format(self):
        assert CSV_HEADER == (
            "solver,variant,m,n,lambda,seed,iters,wall_ms,residual,converged,error"
        )

    def test_columns_follow_declared_types(self):
        """A column is written by its ResultRow field type, not the value's:
        an integer lambda or wall time still comes out as a float."""
        row = ResultRow("pu", "regular", 10, 20, 1, 3, 7, 0, 2, True)
        assert rows_to_csv([row]).splitlines()[1] == "pu,regular,10,20,1.0,3,7,0.0,2.0,true,"
        again = rows_from_csv(rows_to_csv([row]))[0]
        assert type(again.lam) is float and again == row


class TestRunExperiment:
    def test_row_count_and_variants(self):
        """Two solvers, one with an ergodic variant, two reps."""
        rows = run_experiment(small_spec())
        keys = {(r.solver, r.variant, r.seed) for r in rows}
        assert len(rows) == 2 * 3  # (nonlinear x 2 variants + fista) x 2 reps
        assert ("nonlinear-pdhg", "ergodic", 3) in keys
        assert ("fista", "regular", 4) in keys

    def test_rows_are_sorted(self):
        rows = run_experiment(small_spec())
        keys = [(r.solver, r.variant, r.seed) for r in rows]
        assert keys == sorted(keys)

    def test_identical_iteration_counts_across_runs(self):
        spec = small_spec(reps=1)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [(r.iters, r.residual, r.converged) for r in a] == [
            (r.iters, r.residual, r.converged) for r in b
        ]

    def test_byte_identical_csv_without_timing(self):
        spec = small_spec()
        assert rows_to_csv(run_experiment(spec)) == rows_to_csv(run_experiment(spec))

    def test_game_kind(self):
        spec = ExperimentSpec(
            kind="game", m=6, n=6, lam=0.3, seed=1,
            solvers=["nonlinear-pdhg", "pu"], tol=1e-5, max_iters=20000,
            record_timing=False,
        )
        rows = run_experiment(spec)
        assert all(r.converged for r in rows)

    def test_desk_scale_specs_shape(self):
        from nlpdhg.bench import desk_scale_specs

        specs = desk_scale_specs()
        kinds = {s.kind: (s.m, s.n) for s in specs}
        assert kinds == {"logreg": (500, 2000), "game": (500, 500), "lasso": (200, 1000)}

    def test_solver_failure_lands_in_row(self):
        spec = small_spec(solvers=["fista", "no-such-solver"], reps=1)
        rows = run_experiment(spec)
        bad = [r for r in rows if r.solver == "no-such-solver"]
        assert len(bad) == 1 and not bad[0].converged and np.isnan(bad[0].residual)
        assert bad[0].error == "ValueError: solver 'no-such-solver' is not available for kind 'lasso'"
        good = [r for r in rows if r.solver == "fista"]
        assert good[0].converged and good[0].error == ""
        assert rows_from_csv(rows_to_csv(bad))[0].error == bad[0].error

    def test_all_zero_matrix_lands_in_rows(self, monkeypatch):
        from nlpdhg import bench

        def zero_data(m, n, sparsity, noise, seed):
            return np.zeros((m, n)), np.ones(m), np.zeros(n)

        monkeypatch.setattr(bench, "gen_lasso_data", zero_data)
        rows = run_experiment(small_spec(reps=1))
        assert rows and all(not r.converged for r in rows)
        want = "ValueError: A has operator norm 0 (all zeros): no step size exists"
        assert {r.error for r in rows} == {want}


class TestRegistry:
    def test_entries_are_the_solver_functions(self):
        assert SOLVERS["game", "pu"] is baselines.solve_game_pu
        for fn in SOLVERS.values():
            assert inspect.isfunction(fn) and fn.__name__ != "<lambda>"

    def test_ergodic_variant_for_solvers_taking_stop_on(self):
        spec = ExperimentSpec(
            kind="game", m=5, n=4, lam=0.3, seed=2, tol=1e-4, max_iters=5000,
            record_timing=False,
        )
        rows = run_experiment(spec)
        counts = {s: sum(r.solver == s for r in rows) for s in spec.solvers}
        assert counts == {"nonlinear-pdhg": 2, "linear-pdhg": 2, "pu": 1, "omwu": 1}

    def test_solver_of_another_kind_gets_one_row(self):
        """linear-pdhg takes stop_on for games but has no Lasso entry."""
        rows = run_experiment(small_spec(solvers=["linear-pdhg"], reps=1))
        assert [(r.variant, r.error) for r in rows] == [
            ("regular", "ValueError: solver 'linear-pdhg' is not available for kind 'lasso'")
        ]

    def test_call_solver_forwards_seed(self):
        from nlpdhg.problems.games import MatrixGameProblem
        from nlpdhg.data import gen_game_data

        p = MatrixGameProblem(gen_game_data(6, 5, 0), 0.2)
        fn = SOLVERS["game", "pu"]

        def run(seed):
            return call_solver(fn, p, 1e-6, 5000, seed=seed, stop_on="regular")

        direct = baselines.solve_game_pu(p, tol=1e-6, max_iters=5000, seed=1)
        np.testing.assert_array_equal(run(1).x, direct.x)
        assert run(1).k == direct.k
        assert not np.array_equal(run(0).x, direct.x)


# SHA-256 of rows_to_csv(run_experiment(spec)) with record_timing off, for
# every solver of the kind: seeded bench CSVs are part of the interface, so
# a change to the harness must leave these bytes as they are.
GOLDEN_SPECS = [
    (
        dict(kind="game", m=8, n=6, lam=0.2, seed=4, tol=1e-6, max_iters=5000, reps=2),
        "61c33eb8d073ac67490306af0c3fa3f2a7f8110fd53f080eb57133f74141996e",
    ),
    (
        dict(kind="lasso", m=12, n=20, lam=0.15, seed=2, tol=1e-6, max_iters=5000, reps=2,
             sparsity=3),
        "e33d7f1cb5051568a78e2eee098ada322e16adc61e56f5fbcce5575699d42495",
    ),
    (  # an integer lambda is written as 1.0
        dict(kind="logreg", m=10, n=16, lam=1, seed=0, tol=1e-5, max_iters=5000),
        "8558b1beda383fd08aa605b96e4d7109fb19d51b5a33b13710c6f77460ba7c09",
    ),
]


@pytest.mark.parametrize("spec, digest", GOLDEN_SPECS, ids=["game", "lasso", "integer-lambda"])
def test_golden_csv(spec, digest):
    text = rows_to_csv(run_experiment(ExperimentSpec(**spec, record_timing=False)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
