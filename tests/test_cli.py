"""CLI: fixture generation, solving from fixtures, bench output."""

import json

import numpy as np
import pytest

from nlpdhg.bench import SOLVERS, build_problem, call_solver, gen_arrays
from nlpdhg.cli import main
from nlpdhg.operators import load_matrix_csv


def test_gen_data_and_solve_logreg(tmp_path, capsys):
    fix = tmp_path / "fix"
    main([
        "gen-data", "--kind", "logreg", "--m", "12", "--d", "8",
        "--seed", "5", "--lam", "2.0", "--out", str(fix),
    ])
    meta = json.loads((fix / "meta.json").read_text())
    assert meta["kind"] == "logreg" and meta["lambda"] == 2.0
    assert load_matrix_csv(fix / "matrix.csv").shape == (12, 8)

    report_path = tmp_path / "report.json"
    main([
        "solve", "--problem", str(fix), "--method", "nonlinear-pdhg",
        "--tol", "1e-5", "--max-iters", "20000", "--report", str(report_path),
    ])
    report = json.loads(report_path.read_text())
    assert report["converged"] is True
    assert report["problem_id"] == "l1-logreg"
    assert report["k"] == len(report["residual_trace"])


def test_gen_data_lasso_defaults_lambda(tmp_path):
    fix = tmp_path / "fix"
    main([
        "gen-data", "--kind", "lasso", "--m", "10", "--n", "15",
        "--seed", "2", "--out", str(fix),
    ])
    meta = json.loads((fix / "meta.json").read_text())
    A = load_matrix_csv(fix / "matrix.csv")
    b = load_matrix_csv(fix / "b.csv").ravel()
    assert meta["lambda"] > 0
    np.testing.assert_allclose(meta["lambda"], 0.3 * np.max(np.abs(A.T @ b)) / 10)


def test_gen_data_rejects_bad_sizes_before_writing(tmp_path):
    """A generator's ValueError becomes a one-line exit message, and no
    output directory is left behind."""
    fix = tmp_path / "fix"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", "lasso", "--m", "6", "--n", "8", "--out", str(fix)])
    assert str(exc.value) == "gen-data: sparsity must lie in [0, 8], got 10"
    with pytest.raises(SystemExit, match="requires --d"):
        main(["gen-data", "--kind", "logreg", "--m", "6", "--out", str(fix)])
    assert not fix.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--kind", "logreg", "--m", "4", "--d", "3", "--lam", "nan"],
         "lam must be a finite number > 0, got nan"),
        (["--kind", "game", "--m", "3", "--n", "3", "--lam", "-1"],
         "lam must be a finite number > 0, got -1.0"),
        (["--kind", "lasso", "--m", "4", "--n", "6", "--sparsity", "0", "--noise", "0"],
         "the default lam 0.3*max|A^T b|/m must be a finite number > 0, got 0.0"),
    ],
    ids=["nan-lam", "negative-lam", "zero-default-lam"],
)
def test_gen_data_rejects_bad_lambda_before_writing(tmp_path, args, message):
    """A lambda that ``solve`` would refuse, or that JSON cannot hold, ends
    in one line and leaves no output directory behind."""
    fix = tmp_path / "fix"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", *args, "--out", str(fix)])
    assert str(exc.value) == f"gen-data: {message}"
    assert not fix.exists()


def test_solve_game_with_baseline(tmp_path):
    fix = tmp_path / "fix"
    main([
        "gen-data", "--kind", "game", "--m", "5", "--n", "5",
        "--seed", "1", "--out", str(fix),
    ])
    out = tmp_path / "rep.json"
    main([
        "solve", "--problem", str(fix), "--method", "pu",
        "--tol", "1e-6", "--report", str(out),
    ])
    assert json.loads(out.read_text())["converged"] is True


def test_bench_writes_sorted_csv(tmp_path):
    spec = {
        "kind": "lasso", "m": 8, "n": 12, "lam": 0.3, "seed": 0,
        "solvers": ["fista", "nonlinear-pdhg"], "tol": 1e-5,
        "max_iters": 20000, "reps": 1, "record_timing": False,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    main(["bench", "--spec", str(spec_path), "--out", str(out)])
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("solver,variant")
    assert len(lines) == 4  # header + fista + nonlinear x 2 variants


def test_solve_rejects_unknown_fixture_kind(tmp_path):
    """A fixture kind outside the solver registry ends in a one-line exit
    message, not in an attempt to load it as another kind."""
    fix = tmp_path / "fix"
    main(["gen-data", "--kind", "game", "--m", "3", "--n", "3", "--out", str(fix)])
    meta = json.loads((fix / "meta.json").read_text())
    (fix / "meta.json").write_text(json.dumps({**meta, "kind": "games"}))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(fix), "--method", "pu"])
    assert str(exc.value) == f"solve: unknown problem kind 'games' in {fix / 'meta.json'}"


def test_bench_rejects_unknown_spec_key(tmp_path):
    spec = {"kind": "lasso", "m": 8, "n": 12, "lam": 0.3, "seed": 0, "bogus": 1}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit, match="^bench: .*unexpected keyword argument 'bogus'$"):
        main(["bench", "--spec", str(spec_path), "--out", str(out)])
    assert not out.exists()


def test_solve_rejects_missing_fixture_path(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(missing), "--method", "pu"])
    assert str(exc.value) == f"solve: fixture file not found: {missing}"


def test_solve_rejects_sidecar_without_matrix(tmp_path):
    (tmp_path / "meta.json").write_text(json.dumps({"kind": "game", "m": 3, "lambda": 0.1}))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(tmp_path), "--method", "pu"])
    assert str(exc.value) == f"solve: fixture file not found: {tmp_path / 'matrix.csv'}"


@pytest.mark.parametrize("key", ["kind", "lambda"])
def test_solve_rejects_sidecar_without_key(tmp_path, key):
    fix = tmp_path / "fix"
    main(["gen-data", "--kind", "game", "--m", "3", "--n", "3", "--out", str(fix)])
    meta = json.loads((fix / "meta.json").read_text())
    del meta[key]
    (fix / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(fix), "--method", "pu"])
    assert str(exc.value) == f"solve: {fix / 'meta.json'} has no '{key}' entry"



def _game_fixture(tmp_path):
    fix = tmp_path / "fix"
    main(["gen-data", "--kind", "game", "--m", "3", "--n", "3", "--out", str(fix)])
    return fix


def _solve_exit_message(fix):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(fix), "--method", "pu"])
    return str(exc.value)


def test_solve_rejects_sidecar_that_is_not_an_object(tmp_path):
    fix = _game_fixture(tmp_path)
    (fix / "meta.json").write_text("[1, 2]")
    assert _solve_exit_message(fix) == f"solve: {fix / 'meta.json'} does not hold a JSON object"


def test_solve_rejects_non_numeric_matrix_cell(tmp_path):
    fix = _game_fixture(tmp_path)
    text = (fix / "matrix.csv").read_text()
    (fix / "matrix.csv").write_text("a" + text[text.index(","):])
    assert _solve_exit_message(fix) == "solve: could not convert string to float: 'a'"


def test_solve_rejects_negative_lambda(tmp_path):
    fix = _game_fixture(tmp_path)
    meta = json.loads((fix / "meta.json").read_text())
    (fix / "meta.json").write_text(json.dumps({**meta, "lambda": -1}))
    assert _solve_exit_message(fix) == "solve: lam must be a finite number > 0, got -1"


def test_solve_and_gen_data_reject_a_lambda_alike(tmp_path):
    """One check gives one message, whichever command reads the lambda."""
    fix = _game_fixture(tmp_path)
    meta = json.loads((fix / "meta.json").read_text())
    (fix / "meta.json").write_text(json.dumps({**meta, "lambda": -1.0}))
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", "game", "--m", "3", "--n", "3", "--lam", "-1",
              "--out", str(tmp_path / "other")])
    assert str(exc.value).removeprefix("gen-data: ") == _solve_exit_message(fix).removeprefix(
        "solve: "
    )


@pytest.mark.parametrize(
    "kind, method, name",
    [
        ("lasso", "nonlinear-pdhg", "A"),
        ("lasso", "fista", "A"),
        ("logreg", "nonlinear-pdhg", "B"),
        ("logreg", "linear-pdhg", "B"),
        ("logreg", "fb-splitting", "B"),
    ],
)
def test_solve_rejects_all_zero_matrix(tmp_path, kind, method, name):
    fix = tmp_path / "fix"
    size = ["--d", "4"] if kind == "logreg" else ["--n", "4", "--sparsity", "2"]
    main(["gen-data", "--kind", kind, "--m", "3", *size, "--out", str(fix)])
    (fix / "matrix.csv").write_text("0,0,0,0\n" * 3)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(fix), "--method", method])
    assert str(exc.value) == f"solve: {name} has operator norm 0 (all zeros): no step size exists"


def test_solve_failure_is_one_line(tmp_path):
    """A solver that raises ends in the error text its bench row records."""
    fix = tmp_path / "fix"
    main(["gen-data", "--kind", "game", "--m", "5", "--n", "5", "--lam", "1e-7",
          "--out", str(fix)])
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(fix), "--method", "linear-pdhg", "--max-iters", "50"])
    assert str(exc.value) == (
        "solve: InnerSolveError: inner forward-backward iteration stalled above tolerance 1e-10"
    )


@pytest.mark.parametrize("method", ["nonlinear-pdhg", "fista"])
def test_lasso_fixture_solves_like_bench(tmp_path, method):
    """gen-data and solve build the same Lasso instance as a bench spec."""
    fix = tmp_path / "fix"
    main(["gen-data", "--kind", "lasso", "--m", "10", "--n", "16", "--seed", "3",
          "--sparsity", "3", "--lam", "0.2", "--out", str(fix)])
    assert load_matrix_csv(fix / "b.csv").shape == (1, 10)
    out = tmp_path / "rep.json"
    main(["solve", "--problem", str(fix), "--method", method, "--tol", "1e-6",
          "--report", str(out)])
    report = json.loads(out.read_text())
    assert report["converged"] is True and report["problem_id"] == "lasso"

    problem = build_problem("lasso", 0.2, **gen_arrays("lasso", 10, 16, 3, 3, 0.1))
    direct = call_solver(SOLVERS["lasso", method], problem, 1e-6, 50000, 0, "both")
    assert report["k"] == direct.k
    assert report["residual_trace"][-1][1] == direct.residual_trace[-1][1]


def _spec_file(tmp_path, **overrides):
    spec = {"kind": "game", "m": 3, "n": 3, "lam": 0.5, "seed": 0, "solvers": ["pu"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, **overrides}))
    return path


def test_bench_rejects_missing_spec(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--spec", str(missing), "--out", str(tmp_path / "o.csv")])
    assert str(exc.value) == f"bench: spec file not found: {missing}"


def test_bench_rejects_string_solvers(tmp_path):
    """A bare solver name is not split into one solver per character."""
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--spec", str(_spec_file(tmp_path, solvers="pu")), "--out", str(out)])
    assert str(exc.value) == "bench: solvers must be a list of solver names, got 'pu'"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tol", -1, "tol must be a finite number >= 0, got -1"),
        ("tol", float("nan"), "tol must be a finite number >= 0, got nan"),
        ("max_iters", -5, "max_iters must be an integer >= 1, got -5"),
        ("reps", 0, "reps must be an integer >= 1, got 0"),
        ("m", 0, "m must be an integer >= 1, got 0"),
        ("lam", -1, "lam must be a finite number > 0, got -1"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("record_timing", "no", "record_timing must be a bool, got 'no'"),
        ("kind", "lasso", "sparsity must lie in [0, 5], got 10"),
    ],
    ids=[
        "negative-tol", "nan-tol", "negative-max-iters", "zero-reps", "zero-m",
        "negative-lam", "fractional-seed", "string-record-timing",
        "lasso-sparsity-above-n",
    ],
)
def test_bench_rejects_bad_spec_numbers(tmp_path, field, value, message):
    """A spec that would write unconverged, empty-iteration or no rows ends
    in one line before any solve runs."""
    out = tmp_path / "o.csv"
    spec = _spec_file(tmp_path, **{"m": 6, "n": 5, field: value})
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--spec", str(spec), "--out", str(out)])
    assert str(exc.value) == f"bench: {message}"
    assert not out.exists()


def test_solve_rejects_bad_tol_for_an_own_loop_solver(tmp_path):
    """PU runs its own loop, and still ends on the one-line tolerance error
    that the PDHG solvers give."""
    fix = tmp_path / "fix"
    main(["gen-data", "--kind", "game", "--m", "6", "--n", "5", "--out", str(fix)])
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(fix), "--method", "pu", "--tol", "nan",
              "--max-iters", "300"])
    assert str(exc.value) == "solve: ValueError: tol must be a finite number >= 0; got nan"


@pytest.mark.parametrize("command", ["bench", "solve"])
def test_output_path_checked_before_work(tmp_path, monkeypatch, command):
    """A missing output directory ends in one line before any solve runs."""
    monkeypatch.setattr("nlpdhg.cli.run_experiment", lambda spec: pytest.fail("bench ran"))
    monkeypatch.setattr("nlpdhg.cli.call_solver", lambda *a, **kw: pytest.fail("solve ran"))
    if command == "bench":
        argv = ["bench", "--spec", str(_spec_file(tmp_path)), "--out"]
    else:
        argv = ["solve", "--problem", str(_game_fixture(tmp_path)), "--method", "pu", "--report"]
    missing = tmp_path / "nodir" / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(missing)])
    assert str(exc.value) == f"{command}: output directory not found: {missing.parent}"


def test_gen_data_rejects_existing_file_as_output(tmp_path):
    target = tmp_path / "taken"
    target.write_text("keep me\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", "game", "--m", "3", "--n", "3", "--out", str(target)])
    assert str(exc.value) == f"gen-data: output path is not a directory: {target}"
    assert target.read_text() == "keep me\n"


@pytest.mark.parametrize("command", ["bench", "solve"])
def test_output_path_that_is_a_directory_rejected_before_work(tmp_path, monkeypatch, command):
    """An existing directory as the output file ends in one line before any
    solve runs, not in IsADirectoryError after it."""
    monkeypatch.setattr("nlpdhg.cli.run_experiment", lambda spec: pytest.fail("bench ran"))
    monkeypatch.setattr("nlpdhg.cli.call_solver", lambda *a, **kw: pytest.fail("solve ran"))
    if command == "bench":
        argv = ["bench", "--spec", str(_spec_file(tmp_path)), "--out"]
    else:
        argv = ["solve", "--problem", str(_game_fixture(tmp_path)), "--method", "pu", "--report"]
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(taken)])
    assert str(exc.value) == f"{command}: output path is a directory: {taken}"
    assert list(taken.iterdir()) == []


def test_gen_data_rejects_file_ancestor_before_generating(tmp_path, monkeypatch):
    """A file among the output path's ancestors ends in one line naming it,
    before any data is generated or any directory created."""
    monkeypatch.setattr("nlpdhg.cli.gen_arrays", lambda *a: pytest.fail("data generated"))
    target = tmp_path / "s.json"
    target.write_text("keep me\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--kind", "game", "--m", "3", "--n", "3", "--out", str(target / "a")])
    assert str(exc.value) == f"gen-data: output path is not a directory: {target}"
    assert target.read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
