"""Command line interface.

Subcommands:

* ``gen-data`` -- write a problem fixture (matrix CSV + JSON sidecar) to a
  directory.
* ``solve`` -- load a fixture, run one solver, write a JSON report.
* ``bench`` -- run an experiment spec (JSON) and write a results CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import DEFAULT_SOLVERS, SOLVERS, ExperimentSpec, get_solver, rows_to_csv, run_experiment
from .data import gen_game_data, gen_lasso_data, gen_logreg_data
from .operators import load_matrix_csv, save_matrix_csv
from .problems.games import MatrixGameProblem
from .problems.lasso import LassoProblem
from .problems.logreg import L1LogRegProblem

_DEFAULT_LAM = {"logreg": 100.0, "game": 0.1, "lasso": None}


def _generate(args):
    """The fixture's matrices by file name, and its lambda."""
    lam = args.lam if args.lam is not None else _DEFAULT_LAM[args.kind]
    if args.kind == "logreg":
        if args.d is None:
            raise SystemExit("gen-data --kind logreg requires --d")
        B, _, _ = gen_logreg_data(args.m, args.d, args.seed)
        return {"matrix.csv": B}, lam
    if args.n is None:
        raise SystemExit(f"gen-data --kind {args.kind} requires --n")
    if args.kind == "game":
        return {"matrix.csv": gen_game_data(args.m, args.n, args.seed)}, lam
    A, b, _ = gen_lasso_data(args.m, args.n, args.sparsity, args.noise, args.seed)
    if lam is None:
        lam = 0.3 * float(np.max(np.abs(A.T @ b))) / args.m
    return {"matrix.csv": A, "b.csv": b.reshape(1, -1)}, lam


def _cmd_gen_data(args):
    try:
        files, lam = _generate(args)
    except ValueError as exc:
        raise SystemExit(f"gen-data: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in files.items():
        save_matrix_csv(out / name, matrix)
    size = {"d": args.d} if args.kind == "logreg" else {"n": args.n}
    meta = {"kind": args.kind, "m": args.m, "seed": args.seed, **size, "lambda": lam}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote fixture to {out}")


def _load_fixture(path):
    p = Path(path)
    if p.is_dir():
        p = p / "meta.json"
    try:
        meta = json.loads(p.read_text())
        if not isinstance(meta, dict):
            raise SystemExit(f"solve: {p} does not hold a JSON object")
        kind, lam = meta["kind"], meta["lambda"]
        if kind not in DEFAULT_SOLVERS:
            raise SystemExit(f"solve: unknown problem kind {kind!r} in {p}")
        matrix = load_matrix_csv(p.parent / "matrix.csv")
        if kind == "lasso":
            b = load_matrix_csv(p.parent / "b.csv").ravel()
        if kind == "logreg":
            return kind, L1LogRegProblem(matrix, lam)
        if kind == "game":
            return kind, MatrixGameProblem(matrix, lam)
        return kind, LassoProblem(matrix, b, lam)
    except FileNotFoundError as exc:
        raise SystemExit(f"solve: fixture file not found: {exc.filename}") from None
    except KeyError as exc:
        raise SystemExit(f"solve: {p} has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"solve: {exc}") from None


def _cmd_solve(args):
    kind, problem = _load_fixture(args.problem)
    try:
        solve = get_solver(kind, args.method)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    report = solve(problem, args.tol, args.max_iters, seed=0, variant="both")
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"wrote report to {args.report}")
    else:
        print(text)


def _cmd_bench(args):
    try:
        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bench: {exc}") from None
    rows = run_experiment(spec)
    Path(args.out).write_text(rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")


def build_parser():
    parser = argparse.ArgumentParser(prog="nlpdhg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a seeded problem fixture")
    g.add_argument("--kind", choices=tuple(DEFAULT_SOLVERS), required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--d", type=int, default=None, help="feature count (logreg)")
    g.add_argument("--n", type=int, default=None, help="column count (game, lasso)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--lam", type=float, default=None)
    g.add_argument("--sparsity", type=int, default=10, help="lasso truth sparsity")
    g.add_argument("--noise", type=float, default=0.1, help="lasso noise level")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_data)

    s = sub.add_parser("solve", help="solve a fixture with one method")
    s.add_argument("--problem", required=True, help="fixture directory or meta.json path")
    s.add_argument("--method", required=True, choices=sorted({name for _, name in SOLVERS}))
    s.add_argument("--tol", type=float, default=1e-4)
    s.add_argument("--max-iters", type=int, default=50000)
    s.add_argument("--report", default=None, help="output JSON path (stdout if omitted)")
    s.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run an experiment spec")
    b.add_argument("--spec", required=True, help="ExperimentSpec JSON file")
    b.add_argument("--out", required=True, help="results CSV path")
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
