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

from .bench import (
    DEFAULT_SOLVERS,
    SOLVERS,
    ExperimentSpec,
    _error_text,
    build_problem,
    call_solver,
    gen_arrays,
    get_solver,
    rows_to_csv,
    run_experiment,
)
from .checks import check_real
from .operators import load_matrix_csv, save_matrix_csv

_DEFAULT_LAM = {"logreg": 100.0, "game": 0.1, "lasso": None}


def _check_output_file(command, path):
    """Before any work, exit with one line if ``path`` is a directory or its
    directory is missing."""
    path = Path(path)
    if path.is_dir():
        raise SystemExit(f"{command}: output path is a directory: {path}")
    if not path.parent.is_dir():
        raise SystemExit(f"{command}: output directory not found: {path.parent}")


def _cmd_gen_data(args):
    out = Path(args.out)
    # The nearest existing ancestor must be a directory for mkdir to succeed.
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise SystemExit(f"gen-data: output path is not a directory: {existing}")
    flag = "d" if args.kind == "logreg" else "n"
    size = getattr(args, flag)
    if size is None:
        raise SystemExit(f"gen-data --kind {args.kind} requires --{flag}")
    try:
        arrays = gen_arrays(args.kind, args.m, size, args.seed, args.sparsity, args.noise)
    except ValueError as exc:
        raise SystemExit(f"gen-data: {exc}") from None
    lam = args.lam if args.lam is not None else _DEFAULT_LAM[args.kind]
    name = "lam"
    if lam is None:
        A, b = arrays["matrix"], arrays["b"]
        lam = 0.3 * float(np.max(np.abs(A.T @ b))) / args.m
        name = "the default lam 0.3*max|A^T b|/m"
    try:
        check_real(name, lam, positive=True)
    except ValueError as exc:
        raise SystemExit(f"gen-data: {exc}") from None
    out.mkdir(parents=True, exist_ok=True)
    for stem, array in arrays.items():
        save_matrix_csv(out / f"{stem}.csv", array)
    meta = {"kind": args.kind, "m": args.m, "seed": args.seed, flag: size, "lambda": lam}
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
        b = load_matrix_csv(p.parent / "b.csv").ravel() if kind == "lasso" else None
        return kind, build_problem(kind, lam, matrix, b)
    except FileNotFoundError as exc:
        raise SystemExit(f"solve: fixture file not found: {exc.filename}") from None
    except KeyError as exc:
        raise SystemExit(f"solve: {p} has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"solve: {exc}") from None


def _cmd_solve(args):
    if args.report:
        _check_output_file("solve", args.report)
    kind, problem = _load_fixture(args.problem)
    try:
        fn = get_solver(kind, args.method)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        report = call_solver(fn, problem, args.tol, args.max_iters, seed=0, stop_on="both")
    except Exception as exc:  # noqa: BLE001 -- a failed solve is one exit line
        raise SystemExit(f"solve: {_error_text(exc)}") from None
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text + "\n")
        print(f"wrote report to {args.report}")
    else:
        print(text)


def _cmd_bench(args):
    _check_output_file("bench", args.out)
    try:
        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
    except FileNotFoundError as exc:
        raise SystemExit(f"bench: spec file not found: {exc.filename}") from None
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
