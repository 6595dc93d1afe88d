"""Experiment orchestration: seeded data, solver registry, CSV results.

An experiment spec names a problem kind, sizes, a regularization value, a
seed, the solvers to run and the stopping tolerance. Every solver in one
repetition sees identical data. Rows are computed one after another, come
out in canonical sorted order, and seeded runs are bitwise reproducible;
wall time is the only nondeterministic column and can be suppressed with
``record_timing``.

Timing accounting: solver wall time excludes data generation and the cheap
column/entry norm precomputation of the nonlinear methods (it happens at
problem construction); the linear PDHG and FISTA baselines compute their
largest-singular-value estimate inside the timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from . import baselines
from .data import gen_game_data, gen_lasso_data, gen_logreg_data
from .engine import solve
from .problems.games import MatrixGameProblem
from .problems.lasso import LassoProblem
from .problems.logreg import L1LogRegProblem

__all__ = [
    "ExperimentSpec",
    "ResultRow",
    "run_experiment",
    "rows_to_csv",
    "rows_from_csv",
    "CSV_HEADER",
    "SOLVERS",
    "get_solver",
]

CSV_HEADER = "solver,variant,m,n,lambda,seed,iters,wall_ms,residual,converged,error"


@dataclass
class ExperimentSpec:
    kind: str  # "logreg" | "game" | "lasso"
    m: int
    n: int  # feature count d for logreg
    lam: float
    seed: int
    solvers: list = field(default_factory=list)
    tol: float = 1e-4
    max_iters: int = 50000
    reps: int = 1
    sparsity: int = 10  # lasso only
    noise: float = 0.1  # lasso only
    record_timing: bool = True

    def __post_init__(self):
        if self.kind not in DEFAULT_SOLVERS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not self.solvers:
            self.solvers = list(DEFAULT_SOLVERS[self.kind])

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))

    def to_json(self):
        return json.dumps(asdict(self), indent=2)


@dataclass
class ResultRow:
    solver: str
    variant: str  # "regular" | "ergodic"
    m: int
    n: int
    lam: float
    seed: int
    iters: int
    wall_ms: float
    residual: float
    converged: bool
    error: str = ""  # "ClassName: message" of a failed solve


def _nonlinear_pdhg(p, tol, iters, seed, variant):
    return solve(p, tol=tol, max_iters=iters, seed=seed, stop_on=variant)


# Every solver of every problem kind, called as
# solve(problem, tol, max_iters, seed, variant), where ``variant`` is a
# stop_on value. Insertion order is each kind's default solver order.
SOLVERS = {
    ("logreg", "nonlinear-pdhg"): _nonlinear_pdhg,
    ("logreg", "linear-pdhg"): lambda p, tol, iters, seed, variant: (
        baselines.solve_linear_pdhg_logreg(p, tol=tol, max_iters=iters, stop_on=variant)
    ),
    ("logreg", "fb-splitting"): lambda p, tol, iters, seed, variant: (
        baselines.solve_fb_logreg(p, tol=tol, max_iters=iters)
    ),
    ("game", "nonlinear-pdhg"): _nonlinear_pdhg,
    ("game", "linear-pdhg"): lambda p, tol, iters, seed, variant: (
        baselines.solve_linear_pdhg_game(p, tol=tol, max_iters=iters, seed=seed, stop_on=variant)
    ),
    ("game", "pu"): lambda p, tol, iters, seed, variant: (
        baselines.solve_game_pu(p, tol=tol, max_iters=iters, seed=seed)
    ),
    ("game", "omwu"): lambda p, tol, iters, seed, variant: (
        baselines.solve_game_omwu(p, tol=tol, max_iters=iters, seed=seed)
    ),
    ("lasso", "nonlinear-pdhg"): _nonlinear_pdhg,
    ("lasso", "fista"): lambda p, tol, iters, seed, variant: (
        baselines.fista_lasso(p, tol=tol, max_iters=iters)
    ),
}

DEFAULT_SOLVERS = {kind: tuple(n for k, n in SOLVERS if k == kind) for kind, _ in SOLVERS}


def get_solver(kind, name):
    """The ``SOLVERS`` entry for (kind, name); ValueError if there is none."""
    try:
        return SOLVERS[kind, name]
    except KeyError:
        raise ValueError(f"solver {name!r} is not available for kind {kind!r}") from None


def desk_scale_specs(seed=0, reps=1):
    """The default desk-scale experiment sizes: large enough that the cost
    gap between the cheap norms and the largest-singular-value estimate is
    visible, small enough for a laptop run."""
    return [
        ExperimentSpec(kind="logreg", m=500, n=2000, lam=100.0, seed=seed, reps=reps),
        ExperimentSpec(kind="game", m=500, n=500, lam=0.1, seed=seed, reps=reps),
        ExperimentSpec(kind="lasso", m=200, n=1000, lam=0.5, seed=seed, reps=reps),
    ]

# Solvers that define an ergodic sequence get a second timed variant.
ERGODIC_SOLVERS = {"nonlinear-pdhg", "linear-pdhg"}


def _build_problem(spec, seed):
    if spec.kind == "logreg":
        B, _, _ = gen_logreg_data(spec.m, spec.n, seed)
        return L1LogRegProblem(B, spec.lam)
    if spec.kind == "game":
        return MatrixGameProblem(gen_game_data(spec.m, spec.n, seed), spec.lam)
    A, b, _ = gen_lasso_data(spec.m, spec.n, spec.sparsity, spec.noise, seed)
    return LassoProblem(A, b, spec.lam)


def _error_text(exc):
    """``ClassName: message`` on one line and without commas, so that it
    fits one CSV field."""
    text = " ".join(f"{type(exc).__name__}: {exc}".split())
    return text.replace(",", ";")


def _run_one(spec, solver, variant, seed):
    row = dict(solver=solver, variant=variant, m=spec.m, n=spec.n, lam=spec.lam, seed=seed)
    try:
        solve = get_solver(spec.kind, solver)
        report = solve(_build_problem(spec, seed), spec.tol, spec.max_iters, seed, variant)
    except Exception as exc:  # noqa: BLE001 -- per-solver failures stay in the row
        return ResultRow(
            **row, iters=0, wall_ms=0.0, residual=math.nan, converged=False, error=_error_text(exc)
        )
    residual = report.residual_trace[-1][1] if len(report.residual_trace) else math.nan
    return ResultRow(
        **row,
        iters=report.k,
        wall_ms=report.wall_ms if spec.record_timing else 0.0,
        residual=residual,
        converged=report.converged,
    )


def run_experiment(spec):
    """Run every (solver, variant, repetition) cell and return sorted rows."""
    tasks = []
    for rep in range(spec.reps):
        seed = spec.seed + rep
        for solver in spec.solvers:
            variants = ("regular", "ergodic") if solver in ERGODIC_SOLVERS else ("regular",)
            for variant in variants:
                tasks.append((solver, variant, seed))
    rows = [_run_one(spec, *t) for t in tasks]
    rows.sort(key=lambda r: (r.solver, r.variant, r.seed))
    return rows


def _fmt_float(v):
    return repr(float(v))


def rows_to_csv(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.solver,
                    r.variant,
                    str(int(r.m)),
                    str(int(r.n)),
                    _fmt_float(r.lam),
                    str(int(r.seed)),
                    str(int(r.iters)),
                    _fmt_float(r.wall_ms),
                    _fmt_float(r.residual),
                    "true" if r.converged else "false",
                    r.error,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def rows_from_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 11:
            raise ValueError(f"malformed CSV row: {ln!r}")
        rows.append(
            ResultRow(
                solver=f[0],
                variant=f[1],
                m=int(f[2]),
                n=int(f[3]),
                lam=float(f[4]),
                seed=int(f[5]),
                iters=int(f[6]),
                wall_ms=float(f[7]),
                residual=float(f[8]),
                converged={"true": True, "false": False}[f[9]],
                error=f[10],
            )
        )
    return rows
