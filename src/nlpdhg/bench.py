"""Experiment orchestration: seeded data, solver registry, CSV results.

An experiment spec names a problem kind, sizes, a regularization value, a
seed, the solvers to run and the stopping tolerance. Every solver in one
repetition sees identical data. Rows are computed one after another, come
out in canonical sorted order, and seeded runs are bitwise reproducible;
wall time is the only nondeterministic column and can be suppressed with
``record_timing``.

Timing accounting: solver wall time excludes data generation and the cheap
column/entry norm precomputation of the nonlinear methods (it happens at
problem construction). The linear PDHG, forward-backward and FISTA
baselines compute their largest-singular-value estimate inside the timed
region. Both logreg baselines (linear PDHG and forward-backward) also
build ``DenseOperator(problem.B)``, with its finiteness scan of B, inside
it.
"""

from __future__ import annotations

import inspect
import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields

from . import baselines
from .data import gen_game_data, gen_lasso_data, gen_logreg_data
from .checks import check_count, check_real
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
    "call_solver",
    "gen_arrays",
    "build_problem",
]


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
        # A bare string would be iterated as one solver name per character.
        if not isinstance(self.solvers, list) or not all(isinstance(s, str) for s in self.solvers):
            raise ValueError(f"solvers must be a list of solver names, got {self.solvers!r}")
        if not self.solvers:
            self.solvers = list(DEFAULT_SOLVERS[self.kind])
        check_count("m", self.m, 1)
        check_count("n", self.n, 1)
        check_count("seed", self.seed, 0)
        check_count("sparsity", self.sparsity, 0)
        # gen_lasso_data's relation of two counts, here before any work.
        if self.kind == "lasso" and self.sparsity > self.n:
            raise ValueError(f"sparsity must lie in [0, {self.n}], got {self.sparsity}")
        check_real("lam", self.lam, positive=True)
        check_real("noise", self.noise, positive=False)
        if not isinstance(self.record_timing, bool):
            raise ValueError(f"record_timing must be a bool, got {self.record_timing!r}")
        check_real("tol", self.tol, positive=False)
        check_count("max_iters", self.max_iters, 1)
        check_count("reps", self.reps, 1)

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


# Every solver of every problem kind, run by ``call_solver``. Insertion
# order is each kind's default solver order.
SOLVERS = {
    ("logreg", "nonlinear-pdhg"): solve,
    ("logreg", "linear-pdhg"): baselines.solve_linear_pdhg_logreg,
    ("logreg", "fb-splitting"): baselines.solve_fb_logreg,
    ("game", "nonlinear-pdhg"): solve,
    ("game", "linear-pdhg"): baselines.solve_linear_pdhg_game,
    ("game", "pu"): baselines.solve_game_pu,
    ("game", "omwu"): baselines.solve_game_omwu,
    ("lasso", "nonlinear-pdhg"): solve,
    ("lasso", "fista"): baselines.fista_lasso,
}

DEFAULT_SOLVERS = {kind: tuple(n for k, n in SOLVERS if k == kind) for kind, _ in SOLVERS}


def get_solver(kind, name):
    """The ``SOLVERS`` entry for (kind, name); ValueError if there is none."""
    try:
        return SOLVERS[kind, name]
    except KeyError:
        raise ValueError(f"solver {name!r} is not available for kind {kind!r}") from None


def _takes(fn, name):
    return name in inspect.signature(fn).parameters


def call_solver(fn, problem, tol, max_iters, seed, stop_on):
    """Run the solver function ``fn`` on ``problem``: ``seed`` and
    ``stop_on`` go only to a solver whose signature has them."""
    extra = {k: v for k, v in (("seed", seed), ("stop_on", stop_on)) if _takes(fn, k)}
    return fn(problem, tol=tol, max_iters=max_iters, **extra)


def desk_scale_specs(seed=0, reps=1):
    """The default desk-scale experiment sizes: large enough that the cost
    gap between the cheap norms and the largest-singular-value estimate is
    visible, small enough for a laptop run."""
    return [
        ExperimentSpec(kind="logreg", m=500, n=2000, lam=100.0, seed=seed, reps=reps),
        ExperimentSpec(kind="game", m=500, n=500, lam=0.1, seed=seed, reps=reps),
        ExperimentSpec(kind="lasso", m=200, n=1000, lam=0.5, seed=seed, reps=reps),
    ]


def gen_arrays(kind, m, n, seed, sparsity, noise):
    """The seeded data of one instance, keyed by fixture file stem and by
    ``build_problem`` parameter: ``matrix``, and ``b`` for the Lasso."""
    if kind == "logreg":
        return {"matrix": gen_logreg_data(m, n, seed)[0]}
    if kind == "game":
        return {"matrix": gen_game_data(m, n, seed)}
    A, b, _ = gen_lasso_data(m, n, sparsity, noise, seed)
    return {"matrix": A, "b": b}


def build_problem(kind, lam, matrix, b=None):
    """The problem of ``kind`` on the given data; ``b`` is the Lasso's."""
    if kind == "logreg":
        return L1LogRegProblem(matrix, lam)
    if kind == "game":
        return MatrixGameProblem(matrix, lam)
    return LassoProblem(matrix, b, lam)


def _build_problem(spec, seed):
    arrays = gen_arrays(spec.kind, spec.m, spec.n, seed, spec.sparsity, spec.noise)
    return build_problem(spec.kind, spec.lam, **arrays)


def _error_text(exc):
    """``ClassName: message`` on one line and without commas, so that it
    fits one CSV field."""
    text = " ".join(f"{type(exc).__name__}: {exc}".split())
    return text.replace(",", ";")


def _run_one(spec, solver, variant, seed):
    row = dict(solver=solver, variant=variant, m=spec.m, n=spec.n, lam=spec.lam, seed=seed)
    try:
        fn = get_solver(spec.kind, solver)
        report = call_solver(fn, _build_problem(spec, seed), spec.tol, spec.max_iters, seed, variant)
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
    """Run every (solver, variant, repetition) cell and return sorted rows.
    A solver that takes ``stop_on`` also runs its "ergodic" variant."""
    tasks = []
    for rep in range(spec.reps):
        seed = spec.seed + rep
        for solver in spec.solvers:
            fn = SOLVERS.get((spec.kind, solver))
            ergodic = fn is not None and _takes(fn, "stop_on")
            for variant in ("regular", "ergodic") if ergodic else ("regular",):
                tasks.append((solver, variant, seed))
    rows = [_run_one(spec, *t) for t in tasks]
    rows.sort(key=lambda r: (r.solver, r.variant, r.seed))
    return rows


# How a CSV field is written and read, by its ResultRow field type.
_FORMAT = {
    str: str,
    int: lambda v: str(int(v)),
    float: lambda v: repr(float(v)),
    bool: lambda v: "true" if v else "false",
}
_PARSE = {str: str, int: int, float: float, bool: {"true": True, "false": False}.__getitem__}
_TYPES = typing.get_type_hints(ResultRow)
_COLUMNS = tuple((f.name, _TYPES[f.name]) for f in fields(ResultRow))

CSV_HEADER = ",".join("lambda" if name == "lam" else name for name, _ in _COLUMNS)


def rows_to_csv(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_FORMAT[tp](getattr(r, name)) for name, tp in _COLUMNS))
    return "\n".join(lines) + "\n"


def rows_from_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    rows = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != len(_COLUMNS):
            raise ValueError(f"malformed CSV row: {ln!r}")
        rows.append(ResultRow(*(_PARSE[tp](v) for (_, tp), v in zip(_COLUMNS, f))))
    return rows
